package dia

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"diacap/internal/assign"
	"diacap/internal/core"
	"diacap/internal/latency"
	"diacap/internal/sim"
)

// testInstance builds a random instance with an assignment from the given
// algorithm.
func testInstance(t testing.TB, seed int64, n, ns int) (*core.Instance, core.Assignment) {
	t.Helper()
	m := latency.ScaledLike(n, seed)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	in, err := core.NewInstanceTrusted(m, perm[:ns], perm[ns:])
	if err != nil {
		t.Fatal(err)
	}
	a, err := assign.Greedy{}.Assign(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	return in, a
}

func TestRunAtDeltaEqualsDIsClean(t *testing.T) {
	// The paper's central feasibility claim: with the Section II-C offsets
	// and δ = D, the full pipeline runs with zero violations and every
	// delivered update presents at exactly δ after issuance.
	in, a := testInstance(t, 1, 30, 4)
	off, err := in.ComputeOffsets(a)
	if err != nil {
		t.Fatal(err)
	}
	wl := UniformWorkload(in.NumClients(), 3*in.NumClients(), 0, 5)
	res, err := Run(Config{Instance: in, Assignment: a, Delta: off.D, Offsets: off, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("violations at δ = D: %+v", res)
	}
	if res.OpsIssued != len(wl) {
		t.Fatalf("issued %d, want %d", res.OpsIssued, len(wl))
	}
	if res.Executions != len(wl)*in.NumServers() {
		t.Fatalf("executions = %d, want %d", res.Executions, len(wl)*in.NumServers())
	}
	if res.UpdatesDelivered != len(wl)*in.NumClients() {
		t.Fatalf("updates = %d, want %d", res.UpdatesDelivered, len(wl)*in.NumClients())
	}
	// Every interaction time equals δ = D.
	for _, it := range res.InteractionTimes {
		if math.Abs(it-off.D) > 1e-6 {
			t.Fatalf("interaction time %v, want δ = %v", it, off.D)
		}
	}
	if math.Abs(res.MeanInteraction-off.D) > 1e-6 || math.Abs(res.MaxInteraction-off.D) > 1e-6 {
		t.Fatalf("mean/max interaction = %v/%v, want δ = %v", res.MeanInteraction, res.MaxInteraction, off.D)
	}
}

func TestRunCleanProperty(t *testing.T) {
	// δ = D cleanliness holds across random instances, assignments and
	// workloads — the executable form of the Section II-C theorem.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(25)
		ns := 2 + rng.Intn(4)
		m := latency.ScaledLike(n, seed+9000)
		perm := rng.Perm(n)
		in, err := core.NewInstanceTrusted(m, perm[:ns], perm[ns:])
		if err != nil {
			return false
		}
		a := make(core.Assignment, in.NumClients())
		for i := range a {
			a[i] = rng.Intn(ns)
		}
		off, err := in.ComputeOffsets(a)
		if err != nil {
			return false
		}
		wl := PoissonWorkload(rng, in.NumClients(), 40, 3)
		res, err := Run(Config{Instance: in, Assignment: a, Delta: off.D, Offsets: off, Workload: wl})
		if err != nil {
			return false
		}
		return res.Clean()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBelowDViolates(t *testing.T) {
	// δ < D must produce constraint violations when every client issues
	// at least one operation (the derivation of D is over all client
	// pairs, so some issuing client hits the violated constraint).
	in, a := testInstance(t, 2, 30, 4)
	off, err := in.ComputeOffsets(a)
	if err != nil {
		t.Fatal(err)
	}
	wl := UniformWorkload(in.NumClients(), in.NumClients(), 0, 5)
	res, err := Run(Config{Instance: in, Assignment: a, Delta: off.D * 0.8, Offsets: off, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() {
		t.Fatal("δ = 0.8·D should violate constraints")
	}
	if res.ServerLate == 0 && res.ClientLate == 0 {
		t.Fatalf("expected lateness, got %+v", res)
	}
	if res.MaxInteraction <= res.MeanInteraction-1e-9 {
		t.Fatal("max interaction should be at least the mean")
	}
}

func TestRunSlightlyBelowDStillViolates(t *testing.T) {
	in, a := testInstance(t, 3, 25, 3)
	off, err := in.ComputeOffsets(a)
	if err != nil {
		t.Fatal(err)
	}
	wl := UniformWorkload(in.NumClients(), 2*in.NumClients(), 0, 4)
	res, err := Run(Config{Instance: in, Assignment: a, Delta: off.D * 0.999, Offsets: off, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() {
		t.Fatal("δ = 0.999·D should still violate (D is the minimum)")
	}
}

func TestRunAboveDHasSlack(t *testing.T) {
	in, a := testInstance(t, 4, 25, 3)
	off, err := in.ComputeOffsets(a)
	if err != nil {
		t.Fatal(err)
	}
	wl := UniformWorkload(in.NumClients(), 2*in.NumClients(), 0, 4)
	res, err := Run(Config{Instance: in, Assignment: a, Delta: off.D * 1.2, Offsets: off, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	// Offsets computed for D remain feasible for any δ ≥ D in constraint
	// (i); constraint (ii) does not involve δ. Interaction is δ.
	if !res.Clean() {
		t.Fatalf("δ > D should be clean, got %+v", res)
	}
	for _, it := range res.InteractionTimes {
		if math.Abs(it-off.D*1.2) > 1e-6 {
			t.Fatalf("interaction time %v, want %v", it, off.D*1.2)
		}
	}
}

func TestFairnessOrderPreserved(t *testing.T) {
	// Two ops issued close together by different clients: execution order
	// at every server must follow issuance order even though the later op
	// may physically arrive earlier at some server.
	in, a := testInstance(t, 5, 20, 3)
	off, err := in.ComputeOffsets(a)
	if err != nil {
		t.Fatal(err)
	}
	wl := []Operation{
		{ID: 0, Client: 0, IssueTime: 0},
		{ID: 1, Client: in.NumClients() - 1, IssueTime: 0.001},
		{ID: 2, Client: 1, IssueTime: 0.002},
	}
	res, err := Run(Config{Instance: in, Assignment: a, Delta: off.D, Offsets: off, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	if res.FairnessViolations != 0 {
		t.Fatalf("fairness violations: %d", res.FairnessViolations)
	}
	if res.ConsistencyViolations != 0 {
		t.Fatalf("consistency violations: %d", res.ConsistencyViolations)
	}
}

// TestDefaultLatencyMatchesMatrix pins the default message latency,
// read from the instance's client-server and server-server tables, to
// the node-indexed matrix the instance was built from. δ below D makes
// lateness and timewarp repair depend on every message's latency.
func TestDefaultLatencyMatchesMatrix(t *testing.T) {
	in, a := testInstance(t, 4, 30, 4)
	m := latency.ScaledLike(30, 4) // testInstance's matrix
	off, err := in.ComputeOffsets(a)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Instance: in, Assignment: a, Delta: 0.7 * off.D, Offsets: off,
		Workload: UniformWorkload(in.NumClients(), 3*in.NumClients(), 0, 5), Repair: RepairTimewarp}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Latency = func(u, v int) float64 { return m[u][v] }
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("default latency result %+v, matrix latency result %+v", got, want)
	}
	if got.Rollbacks == 0 {
		t.Fatal("δ = 0.7·D caused no rollbacks; lateness is not exercised")
	}
}

func TestJitterCausesBoundedViolations(t *testing.T) {
	// With lognormal jitter around the base matrix and δ = D computed on
	// the base matrix, some messages exceed their modeled latency and
	// cause violations — the Section II-E trade-off.
	in, a := testInstance(t, 6, 25, 3)
	off, err := in.ComputeOffsets(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	lat := sim.JitteredLatency(latency.ScaledLike(25, 6), 0.4, rng) // testInstance's matrix
	wl := UniformWorkload(in.NumClients(), 4*in.NumClients(), 0, 6)
	res, err := Run(Config{Instance: in, Assignment: a, Delta: off.D, Offsets: off, Workload: wl, Latency: lat})
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerLate+res.ClientLate == 0 {
		t.Fatal("strong jitter at δ = D should cause some lateness")
	}
	// But most messages should still be on time (the median is the base).
	total := res.Executions + res.UpdatesDelivered
	if res.ServerLate+res.ClientLate > total/2 {
		t.Fatalf("more than half late: %d of %d", res.ServerLate+res.ClientLate, total)
	}
}

func TestJitterMitigatedByPercentileModeling(t *testing.T) {
	// Modeling the 95th percentile (computing the assignment, offsets and
	// δ on the inflated matrix) sharply reduces violations versus modeling
	// the median — quantifying Section II-E.
	base := latency.ScaledLike(25, 8)
	jm, err := latency.NewJitterModel(base, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	run := func(model latency.Matrix) int {
		rng := rand.New(rand.NewSource(9))
		perm := rng.Perm(25)
		in, err := core.NewInstanceTrusted(model, perm[:3], perm[3:])
		if err != nil {
			t.Fatal(err)
		}
		a, err := assign.Greedy{}.Assign(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		off, err := in.ComputeOffsets(a)
		if err != nil {
			t.Fatal(err)
		}
		// Replay with jittered *base* latencies regardless of the model
		// used for planning. Node indices agree between base and model.
		lat := sim.JitteredLatency(base, 0.3, rand.New(rand.NewSource(10)))
		wl := UniformWorkload(in.NumClients(), 5*in.NumClients(), 0, 7)
		res, err := Run(Config{Instance: in, Assignment: a, Delta: off.D, Offsets: off, Workload: wl, Latency: lat})
		if err != nil {
			t.Fatal(err)
		}
		return res.ServerLate + res.ClientLate
	}
	p95, err := jm.Percentile(0.95)
	if err != nil {
		t.Fatal(err)
	}
	vMedian := run(base)
	vP95 := run(p95)
	if vP95 >= vMedian {
		t.Fatalf("95th-percentile planning (%d violations) should beat median planning (%d)", vP95, vMedian)
	}
}

func TestDroppedMessagesDetectedAsInconsistency(t *testing.T) {
	// Failure injection: dropping a server-to-server forward leaves one
	// server without the operation — the consistency audit must notice.
	in, a := testInstance(t, 11, 20, 3)
	off, err := in.ComputeOffsets(a)
	if err != nil {
		t.Fatal(err)
	}
	wl := UniformWorkload(in.NumClients(), 5, 0, 10)
	res, err := Run(Config{Instance: in, Assignment: a, Delta: off.D, Offsets: off, Workload: wl,
		Drop: func(msg sim.Message) bool {
			m, ok := msg.Payload.(opMsg)
			return ok && !m.fromClient && m.op.ID == 0 && msg.To == 0
		}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConsistencyViolations == 0 {
		t.Fatal("dropped forward should register as a consistency violation")
	}
}

func TestRunValidation(t *testing.T) {
	in, a := testInstance(t, 12, 15, 2)
	off, _ := in.ComputeOffsets(a)
	wl := UniformWorkload(in.NumClients(), 5, 0, 1)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil instance", Config{Assignment: a, Delta: 1, Workload: wl}},
		{"bad assignment", Config{Instance: in, Assignment: a[:2], Delta: 1, Workload: wl}},
		{"zero delta", Config{Instance: in, Assignment: a, Delta: 0, Workload: wl}},
		{"NaN delta", Config{Instance: in, Assignment: a, Delta: math.NaN(), Workload: wl}},
		{"empty workload", Config{Instance: in, Assignment: a, Delta: 1}},
		{"unsorted workload", Config{Instance: in, Assignment: a, Delta: 1,
			Workload: []Operation{{ID: 0, Client: 0, IssueTime: 5}, {ID: 1, Client: 0, IssueTime: 1}}}},
		{"bad client", Config{Instance: in, Assignment: a, Delta: 1,
			Workload: []Operation{{ID: 0, Client: 999, IssueTime: 0}}}},
		{"negative issue time", Config{Instance: in, Assignment: a, Delta: 1,
			Workload: []Operation{{ID: 0, Client: 0, IssueTime: -4}}}},
		{"short offsets", Config{Instance: in, Assignment: a, Delta: off.D,
			Offsets: &core.Offsets{D: off.D, ServerAhead: off.ServerAhead[:1]}, Workload: wl}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.cfg); err == nil {
				t.Fatal("Run should fail")
			}
		})
	}
}

func TestWorkloadGenerators(t *testing.T) {
	u := UniformWorkload(3, 7, 10, 2)
	if len(u) != 7 {
		t.Fatalf("uniform length = %d", len(u))
	}
	if u[0].IssueTime != 10 || u[6].IssueTime != 22 {
		t.Fatalf("uniform times wrong: %v .. %v", u[0].IssueTime, u[6].IssueTime)
	}
	if u[3].Client != 0 || u[4].Client != 1 {
		t.Fatal("uniform round-robin broken")
	}

	rng := rand.New(rand.NewSource(3))
	p := PoissonWorkload(rng, 5, 50, 2)
	if len(p) != 50 {
		t.Fatalf("poisson length = %d", len(p))
	}
	for i := 1; i < len(p); i++ {
		if p[i].IssueTime < p[i-1].IssueTime {
			t.Fatal("poisson workload must be sorted")
		}
	}
	for _, op := range p {
		if op.Client < 0 || op.Client >= 5 {
			t.Fatalf("poisson client %d out of range", op.Client)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	in, a := testInstance(t, 13, 25, 3)
	off, _ := in.ComputeOffsets(a)
	wl := UniformWorkload(in.NumClients(), 30, 0, 2)
	r1, err := Run(Config{Instance: in, Assignment: a, Delta: off.D, Offsets: off, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Config{Instance: in, Assignment: a, Delta: off.D, Offsets: off, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.InteractionTimes) != len(r2.InteractionTimes) {
		t.Fatal("nondeterministic delivery count")
	}
	for i := range r1.InteractionTimes {
		if r1.InteractionTimes[i] != r2.InteractionTimes[i] {
			t.Fatal("nondeterministic interaction times")
		}
	}
}

func BenchmarkRun(b *testing.B) {
	m := latency.ScaledLike(60, 1)
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(60)
	in, err := core.NewInstanceTrusted(m, perm[:6], perm[6:])
	if err != nil {
		b.Fatal(err)
	}
	a, err := assign.Greedy{}.Assign(in, nil)
	if err != nil {
		b.Fatal(err)
	}
	off, err := in.ComputeOffsets(a)
	if err != nil {
		b.Fatal(err)
	}
	wl := UniformWorkload(in.NumClients(), 200, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Instance: in, Assignment: a, Delta: off.D, Offsets: off, Workload: wl}); err != nil {
			b.Fatal(err)
		}
	}
}
