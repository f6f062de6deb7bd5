package dynamic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"diacap/internal/core"
	"diacap/internal/latency"
)

func testInstance(t testing.TB, seed int64, n, ns int) *core.Instance {
	t.Helper()
	m := latency.ScaledLike(n, seed)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	in, err := core.NewInstanceTrusted(m, perm[:ns], perm[ns:])
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func defaultChurn(nc int) ChurnConfig {
	return ChurnConfig{
		NumClients:       nc,
		Horizon:          1000,
		MeanInterarrival: 5,
		MeanSession:      200,
		InitialActive:    nc / 4,
	}
}

func TestChurnConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ChurnConfig)
	}{
		{"zero clients", func(c *ChurnConfig) { c.NumClients = 0 }},
		{"zero horizon", func(c *ChurnConfig) { c.Horizon = 0 }},
		{"zero interarrival", func(c *ChurnConfig) { c.MeanInterarrival = 0 }},
		{"zero session", func(c *ChurnConfig) { c.MeanSession = 0 }},
		{"negative initial", func(c *ChurnConfig) { c.InitialActive = -1 }},
		{"initial too big", func(c *ChurnConfig) { c.InitialActive = 99999 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := defaultChurn(20)
			tc.mutate(&cfg)
			if _, err := GenerateChurn(cfg, 1); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestGenerateChurnWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		cfg := defaultChurn(30)
		events, err := GenerateChurn(cfg, seed)
		if err != nil {
			return false
		}
		active := map[int]bool{}
		for i, e := range events {
			if i > 0 && e.Time < events[i-1].Time {
				return false // not sorted
			}
			if e.Client < 0 || e.Client >= cfg.NumClients {
				return false
			}
			switch e.Kind {
			case Join:
				if active[e.Client] {
					return false // double join
				}
				active[e.Client] = true
			case Leave:
				if !active[e.Client] {
					return false // leave while inactive
				}
				delete(active, e.Client)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateChurnDeterministic(t *testing.T) {
	cfg := defaultChurn(25)
	a, err := GenerateChurn(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateChurn(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("nondeterministic churn")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic churn")
		}
	}
}

func TestGenerateChurnInitialActive(t *testing.T) {
	cfg := defaultChurn(40)
	cfg.InitialActive = 10
	events, err := GenerateChurn(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	zeroJoins := 0
	for _, e := range events {
		if e.Time == 0 && e.Kind == Join {
			zeroJoins++
		}
	}
	if zeroJoins != 10 {
		t.Fatalf("joins at time 0 = %d, want 10", zeroJoins)
	}
}

func TestSimulateStrategies(t *testing.T) {
	in := testInstance(t, 1, 60, 5)
	events, err := GenerateChurn(defaultChurn(in.NumClients()), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{
		NewNearestJoin(in),
		NewGreedyJoin(in),
		NewGreedyJoinRepair(in, 2),
	} {
		res, err := Simulate(in, nil, events, 1000, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if res.Joins == 0 || res.Leaves == 0 {
			t.Fatalf("%s: trivial trace (%d joins, %d leaves)", strat.Name(), res.Joins, res.Leaves)
		}
		if res.TimeAvgD <= 0 || res.MaxD < res.TimeAvgD {
			t.Fatalf("%s: inconsistent metrics %+v", strat.Name(), res)
		}
		if len(res.Timeline) != res.Joins+res.Leaves {
			t.Fatalf("%s: timeline length %d, want %d", strat.Name(), len(res.Timeline), res.Joins+res.Leaves)
		}
	}
}

func TestGreedyJoinBeatsNearestJoin(t *testing.T) {
	// Placing joins D-aware should beat nearest-server placement on
	// time-averaged D for most traces; require it on a fixed seed set.
	wins := 0
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		in := testInstance(t, int64(10+trial), 50, 4)
		events, err := GenerateChurn(defaultChurn(in.NumClients()), int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		nj, err := Simulate(in, nil, events, 1000, NewNearestJoin(in))
		if err != nil {
			t.Fatal(err)
		}
		gj, err := Simulate(in, nil, events, 1000, NewGreedyJoin(in))
		if err != nil {
			t.Fatal(err)
		}
		if gj.TimeAvgD <= nj.TimeAvgD+1e-9 {
			wins++
		}
	}
	if wins < trials*3/4 {
		t.Fatalf("Greedy-Join beat Nearest-Join only %d/%d times", wins, trials)
	}
}

func TestRepairImprovesOverPlainGreedyJoin(t *testing.T) {
	wins := 0
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		in := testInstance(t, int64(20+trial), 50, 4)
		events, err := GenerateChurn(defaultChurn(in.NumClients()), int64(trial+50))
		if err != nil {
			t.Fatal(err)
		}
		gj, err := Simulate(in, nil, events, 1000, NewGreedyJoin(in))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Simulate(in, nil, events, 1000, NewGreedyJoinRepair(in, 2))
		if err != nil {
			t.Fatal(err)
		}
		if rep.TimeAvgD <= gj.TimeAvgD+1e-9 {
			wins++
		}
		if rep.RepairMoves == 0 {
			t.Fatal("repair strategy should perform moves")
		}
	}
	if wins < trials*3/4 {
		t.Fatalf("repair beat plain join only %d/%d times", wins, trials)
	}
}

func TestSimulateCapacitated(t *testing.T) {
	in := testInstance(t, 5, 40, 4)
	caps := core.UniformCapacities(4, in.NumClients())
	cfg := defaultChurn(in.NumClients())
	events, err := GenerateChurn(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{NewNearestJoin(in), NewGreedyJoin(in), NewGreedyJoinRepair(in, 1)} {
		if _, err := Simulate(in, caps, events, cfg.Horizon, strat); err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
	}
	// Tight capacities must still hold (joins spill, repair respects them).
	tight := core.UniformCapacities(4, cfg.NumClients/3)
	if _, err := Simulate(in, tight, events, cfg.Horizon, NewGreedyJoinRepair(in, 1)); err != nil {
		t.Fatalf("tight caps: %v", err)
	}
}

func TestSimulateValidation(t *testing.T) {
	in := testInstance(t, 6, 20, 2)
	strat := NewNearestJoin(in)
	if _, err := Simulate(nil, nil, nil, 10, strat); err == nil {
		t.Fatal("nil instance should fail")
	}
	if _, err := Simulate(in, nil, nil, 0, strat); err == nil {
		t.Fatal("zero horizon should fail")
	}
	if _, err := Simulate(in, core.Capacities{1}, nil, 10, strat); err == nil {
		t.Fatal("capacity length mismatch should fail")
	}
	bad := []Event{{Time: 5, Kind: Leave, Client: 0}}
	if _, err := Simulate(in, nil, bad, 10, strat); err == nil {
		t.Fatal("leave before join should fail")
	}
	unsorted := []Event{{Time: 5, Kind: Join, Client: 0}, {Time: 1, Kind: Join, Client: 1}}
	if _, err := Simulate(in, nil, unsorted, 10, strat); err == nil {
		t.Fatal("unsorted events should fail")
	}
	double := []Event{{Time: 1, Kind: Join, Client: 0}, {Time: 2, Kind: Join, Client: 0}}
	if _, err := Simulate(in, nil, double, 10, strat); err == nil {
		t.Fatal("double join should fail")
	}
	outOfRange := []Event{{Time: 1, Kind: Join, Client: 9999}}
	if _, err := Simulate(in, nil, outOfRange, 10, strat); err == nil {
		t.Fatal("out-of-range client should fail")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	in := testInstance(t, 7, 40, 4)
	events, err := GenerateChurn(defaultChurn(in.NumClients()), 11)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Simulate(in, nil, events, 1000, NewGreedyJoinRepair(in, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(in, nil, events, 1000, NewGreedyJoinRepair(in, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.TimeAvgD != b.TimeAvgD || a.RepairMoves != b.RepairMoves {
		t.Fatal("simulation not deterministic")
	}
}

func BenchmarkSimulateGreedyJoinRepair(b *testing.B) {
	m := latency.ScaledLike(150, 1)
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(150)
	in, err := core.NewInstanceTrusted(m, perm[:8], perm[8:])
	if err != nil {
		b.Fatal(err)
	}
	cfg := defaultChurn(in.NumClients())
	events, err := GenerateChurn(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	strat := NewGreedyJoinRepair(in, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(in, nil, events, cfg.Horizon, strat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateScenarioHysteresis replays the storm preset at seed
// 42 under diasim's default scenario strategy: a gain- and
// budget-gated reoptimization on every event, whose proposal is solved
// on a sandbox evaluator built per event.
func BenchmarkSimulateScenarioHysteresis(b *testing.B) {
	sc, err := BuildScenario("storm", 42)
	if err != nil {
		b.Fatal(err)
	}
	in := sc.Pop.Instance
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The gate's budget and counters are stateful: one per run.
		strat := NewHysteresis(NewPeriodicReoptimize(in, 1e-6), 1, 0.05, NewMigrationBudget(3, 6))
		if _, err := SimulateScenario(sc, nil, strat); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPeriodicReoptimize(t *testing.T) {
	in := testInstance(t, 31, 50, 4)
	cfg := defaultChurn(in.NumClients())
	events, err := GenerateChurn(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	strat := NewPeriodicReoptimize(in, 200)
	res, err := Simulate(in, nil, events, cfg.Horizon, strat)
	if err != nil {
		t.Fatal(err)
	}
	if res.RepairMoves == 0 {
		t.Fatal("periodic re-optimization should move clients")
	}
	// Full re-optimization should match or beat the incremental repair
	// strategy on time-averaged D (it pays far more disruption for it).
	inc, err := Simulate(in, nil, events, cfg.Horizon, NewGreedyJoinRepair(in, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeAvgD > inc.TimeAvgD*1.15 {
		t.Fatalf("periodic (%v) clearly worse than incremental (%v)", res.TimeAvgD, inc.TimeAvgD)
	}
	if res.RepairMoves <= inc.RepairMoves {
		t.Fatalf("periodic should be more disruptive: %d vs %d moves", res.RepairMoves, inc.RepairMoves)
	}
}

func TestPeriodicReoptimizeRespectsPeriod(t *testing.T) {
	in := testInstance(t, 32, 30, 3)
	// A period longer than the horizon: only the t=0 batch can trigger at
	// most one solve (events at time 0 have now = 0 = lastRun start).
	strat := NewPeriodicReoptimize(in, 1e9)
	cfg := defaultChurn(in.NumClients())
	events, err := GenerateChurn(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(in, nil, events, cfg.Horizon, strat)
	if err != nil {
		t.Fatal(err)
	}
	// No event time reaches lastRun + 1e9, so no re-optimizations happen.
	if res.RepairMoves != 0 {
		t.Fatalf("moves = %d, want 0 with an unreachable period", res.RepairMoves)
	}
}

func TestPeriodicReoptimizeCapacitated(t *testing.T) {
	in := testInstance(t, 33, 40, 4)
	caps := core.UniformCapacities(4, in.NumClients()/2)
	cfg := defaultChurn(in.NumClients())
	events, err := GenerateChurn(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(in, caps, events, cfg.Horizon, NewPeriodicReoptimize(in, 150)); err != nil {
		t.Fatal(err)
	}
}
