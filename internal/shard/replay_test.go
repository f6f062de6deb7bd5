package shard_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"diacap/internal/core"
	"diacap/internal/dynamic"
	"diacap/internal/latency"
	"diacap/internal/shard"
)

// TestReplayOneShardMatchesSimulate is the decomposition anchor for the
// scenario path: a one-shard plane replaying a scenario must reproduce
// dynamic.SimulateScenario bit-for-bit — same counters, same Timeline,
// same FinalD/MaxD/TimeAvgD down to the last bit.
func TestReplayOneShardMatchesSimulate(t *testing.T) {
	kinds := dynamic.ScenarioKinds()
	if testing.Short() {
		kinds = []string{"flashcrowd", "storm"}
	}
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			sc, err := dynamic.BuildScenario(kind, 5)
			if err != nil {
				t.Fatal(err)
			}
			want, err := dynamic.SimulateScenario(sc, nil, dynamic.NewGreedyJoin(sc.Pop.Instance))
			if err != nil {
				t.Fatal(err)
			}
			p, err := shard.NewFromPopulation(sc.Pop, shard.Options{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Replay(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			compareReplay(t, got, want)
		})
	}
}

// TestReplayOneShardCapacitated repeats the anchor under binding
// capacities, exercising the capacity-split and effective-capacity
// paths against the simulator's.
func TestReplayOneShardCapacitated(t *testing.T) {
	sc, err := dynamic.BuildScenario("flashcrowd", 7)
	if err != nil {
		t.Fatal(err)
	}
	caps := make(core.Capacities, len(sc.Pop.Servers))
	for k := range caps {
		caps[k] = sc.Pop.Instance.NumClients()/len(caps) + 4
	}
	want, err := dynamic.SimulateScenario(sc, caps, dynamic.NewGreedyJoin(sc.Pop.Instance))
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.NewFromPopulation(sc.Pop, shard.Options{Shards: 1, Capacities: caps})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Replay(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	compareReplay(t, got, want)
}

func compareReplay(t *testing.T, got *shard.ReplayResult, want *dynamic.ScenarioResult) {
	t.Helper()
	if got.Joins != want.Joins || got.Leaves != want.Leaves {
		t.Fatalf("churn counters: got %d/%d, want %d/%d", got.Joins, got.Leaves, want.Joins, want.Leaves)
	}
	if got.KillsApplied != want.KillsApplied || got.Restarts != want.Restarts {
		t.Fatalf("failure counters: got %d/%d, want %d/%d",
			got.KillsApplied, got.Restarts, want.KillsApplied, want.Restarts)
	}
	if got.DriftSteps != want.DriftSteps {
		t.Fatalf("drift steps: got %d, want %d", got.DriftSteps, want.DriftSteps)
	}
	if got.ForcedMoves != want.ForcedMoves || got.RepairMoves != want.RepairMoves {
		t.Fatalf("move counters: got %d/%d, want %d/%d",
			got.ForcedMoves, got.RepairMoves, want.ForcedMoves, want.RepairMoves)
	}
	bitsEq(t, "FinalD", got.FinalD, want.FinalD)
	bitsEq(t, "MaxD", got.MaxD, want.MaxD)
	bitsEq(t, "TimeAvgD", got.TimeAvgD, want.TimeAvgD)
	if len(got.Timeline) != len(want.Timeline) {
		t.Fatalf("timeline length: got %d, want %d", len(got.Timeline), len(want.Timeline))
	}
	for i := range got.Timeline {
		if got.Timeline[i].Time != want.Timeline[i].Time {
			t.Fatalf("timeline[%d] time: got %v, want %v", i, got.Timeline[i].Time, want.Timeline[i].Time)
		}
		bitsEq(t, fmt.Sprintf("timeline[%d] D", i), got.Timeline[i].D, want.Timeline[i].D)
	}
}

// TestReplayMultiShard replays failure-storm and drift scenarios
// through 4- and 16-shard planes, uncapacitated and with 24 seats per
// server: the run must complete (Replay checks the world's capacity
// invariant after every event), the published D must stay exact
// against an oracle evaluator over the population instance, and the
// certified gap must respect the 4ρ envelope while cell geometry is
// valid.
func TestReplayMultiShard(t *testing.T) {
	for _, kind := range []string{"storm", "drift"} {
		for _, shards := range []int{4, 16} {
			for _, seats := range []int{0, 24} {
				name := fmt.Sprintf("%s/shards=%d", kind, shards)
				if seats > 0 {
					name += fmt.Sprintf("/cap=%d", seats)
				}
				t.Run(name, func(t *testing.T) { replayMultiShard(t, kind, shards, seats) })
			}
		}
	}
}

func replayMultiShard(t *testing.T, kind string, shards, seats int) {
	sc, err := dynamic.BuildScenario(kind, 9)
	if err != nil {
		t.Fatal(err)
	}
	var caps core.Capacities
	if seats > 0 {
		caps = core.UniformCapacities(len(sc.Pop.Servers), seats)
	}
	p, err := shard.NewFromPopulation(sc.Pop, shard.Options{Shards: shards, MaxCells: 24, Capacities: caps})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Replay(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	final := p.Current()
	if final.Epoch != res.FinalEpoch {
		t.Fatalf("final epoch %d, result says %d", final.Epoch, res.FinalEpoch)
	}
	// Oracle: a single evaluator over the live geometry — the population
	// instance, or the last drift snapshot's re-materialized instance
	// once coordinates have moved.
	oracle := sc.Pop.Instance
	if res.DriftSteps > 0 {
		oracle = sc.Snapshots[len(sc.Snapshots)-1].Instance
	}
	ev, err := oracle.NewEvaluator(final.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	bitsEq(t, "final sharded D vs oracle", final.D, ev.D())
	if final.CertifiedD < final.D {
		t.Fatalf("certified bound %v below exact D %v", final.CertifiedD, final.D)
	}
	if res.MaxCertGap > 4*final.MaxRho+1e-9 {
		t.Fatalf("certified gap %v exceeded 4·maxρ = %v", res.MaxCertGap, 4*final.MaxRho)
	}
	events := 0
	for _, n := range res.ShardEvents {
		events += n
	}
	if events != res.Joins+res.Leaves {
		t.Fatalf("shard event counts sum to %d, want %d joins+leaves", events, res.Joins+res.Leaves)
	}
	if st := p.EvaluatorStats(); st.Recomputes != 0 || st.EccScans != 0 {
		t.Fatalf("replay fell back to O(world) repair: %+v", st)
	}
	for k, load := range final.Loads {
		if (caps != nil && load > caps[k]) || (!final.Alive[k] && load > 0) {
			t.Fatalf("server %d (alive %t) holds %d clients", k, final.Alive[k], load)
		}
	}
}

// TestApplyDriftCoordinatePlane drifts a shard.New plane: ApplyDrift
// takes moved [servers ∥ clients] coordinates, and the published D must
// equal, bit for bit, an evaluator over the matrix-built instance of
// the moved world at the published assignment — after the drift and
// after a join on the rebuilt evaluators.
func TestApplyDriftCoordinatePlane(t *testing.T) {
	servers, clients := testCoords(t, 160, 6, 4)
	ns := len(servers)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p, err := shard.New(shard.Options{Shards: shards, Servers: servers, Clients: clients, MaxCells: 24})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for c := 0; c < len(clients); c += 2 {
				if _, err := p.Join(ctx, c); err != nil {
					t.Fatal(err)
				}
			}
			moved := append(append([]latency.Coord(nil), servers...), clients...)
			rng := rand.New(rand.NewSource(5))
			for i := range moved {
				moved[i].X += 20 * rng.NormFloat64()
				moved[i].Y += 20 * rng.NormFloat64()
			}
			if err := p.ApplyDrift(ctx, moved[1:]); err == nil {
				t.Fatal("drift with one coordinate missing succeeded")
			}
			before := p.Current()
			if err := p.ApplyDrift(ctx, moved); err != nil {
				t.Fatal(err)
			}
			snap := p.Current()
			if snap.D == before.D {
				t.Fatalf("drift left D at %v; the moved geometry is not exercised", snap.D)
			}
			bitsEq(t, "D after drift", snap.D, globalD(t, moved[:ns], moved[ns:], snap.Assignment))
			if _, err := p.Join(ctx, 1); err != nil {
				t.Fatal(err)
			}
			snap = p.Current()
			bitsEq(t, "D after a post-drift join", snap.D, globalD(t, moved[:ns], moved[ns:], snap.Assignment))
		})
	}
}

// TestReplayPopulationMismatch pins the defensive check against feeding
// a plane a scenario sized for a different population.
func TestReplayPopulationMismatch(t *testing.T) {
	sc, err := dynamic.BuildScenario("flashcrowd", 2)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := dynamic.NewPopulation(60, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.NewFromPopulation(pop, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Replay(context.Background(), sc); err == nil {
		t.Fatal("replay of a mis-sized scenario succeeded")
	}

	// Drift snapshots are population-indexed: a plane over the same
	// coordinates in New's [servers ∥ clients] node space must refuse
	// them rather than apply them to the wrong nodes.
	sc, err = dynamic.BuildScenario("drift", 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := shard.Options{Shards: 2}
	for _, n := range sc.Pop.Servers {
		opts.Servers = append(opts.Servers, sc.Pop.Coords[n])
	}
	for _, n := range sc.Pop.Clients {
		opts.Clients = append(opts.Clients, sc.Pop.Coords[n])
	}
	if p, err = shard.New(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Replay(context.Background(), sc); err == nil {
		t.Fatal("replay of drift snapshots on a plane outside the population's node space succeeded")
	}
}
