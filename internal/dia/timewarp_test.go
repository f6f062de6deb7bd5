package dia

import (
	"math/rand"
	"testing"

	"diacap/internal/latency"
	"diacap/internal/sim"
)

func TestTimewarpRestoresConsistencyBelowD(t *testing.T) {
	// With δ < D and timewarp repair, lateness still happens (the paper's
	// bound is physical), but the replicas re-converge: no consistency or
	// fairness violations, identical state digests — only artifacts.
	in, a := testInstance(t, 51, 25, 3)
	off, err := in.ComputeOffsets(a)
	if err != nil {
		t.Fatal(err)
	}
	wl := UniformWorkload(in.NumClients(), 2*in.NumClients(), 0, 4)
	res, err := Run(Config{Instance: in, Assignment: a, Delta: off.D * 0.8, Offsets: off,
		Workload: wl, Repair: RepairTimewarp})
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerLate == 0 {
		t.Fatal("δ = 0.8·D must still produce late arrivals")
	}
	if res.ConsistencyViolations != 0 {
		t.Fatalf("timewarp should restore execution-time consistency, got %d violations",
			res.ConsistencyViolations)
	}
	if res.FairnessViolations != 0 {
		t.Fatalf("timewarp timeline should be fair, got %d violations", res.FairnessViolations)
	}
	if res.ServerStateMismatches != 0 || res.ClientStateMismatches != 0 {
		t.Fatalf("timewarp should re-converge the state, got %d/%d mismatches",
			res.ServerStateMismatches, res.ClientStateMismatches)
	}
	if res.Rollbacks == 0 {
		t.Fatal("late executions under timewarp must be rollbacks")
	}
	if res.Rollbacks != res.ServerLate {
		t.Fatalf("each late arrival is one rollback: %d vs %d", res.Rollbacks, res.ServerLate)
	}
	if res.MaxRollbackDepth <= 0 {
		t.Fatal("rollback depth should be positive")
	}
	if res.ClientLate > 0 && res.ClientArtifacts != res.ClientLate {
		t.Fatalf("late updates should surface as artifacts: %d vs %d",
			res.ClientArtifacts, res.ClientLate)
	}
}

func TestTimewarpVsNoneComparison(t *testing.T) {
	// Same run, both policies: without repair the replicas diverge; with
	// repair they do not. Interaction times (user-perceived) agree.
	in, a := testInstance(t, 52, 25, 3)
	off, err := in.ComputeOffsets(a)
	if err != nil {
		t.Fatal(err)
	}
	wl := UniformWorkload(in.NumClients(), in.NumClients(), 0, 5)
	base := Config{Instance: in, Assignment: a, Delta: off.D * 0.85, Offsets: off, Workload: wl}

	plain := base
	plainRes, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	repaired := base
	repaired.Repair = RepairTimewarp
	repairedRes, err := Run(repaired)
	if err != nil {
		t.Fatal(err)
	}
	if plainRes.ServerStateMismatches == 0 {
		t.Fatal("without repair, replicas should diverge at this δ")
	}
	if repairedRes.ServerStateMismatches != 0 {
		t.Fatal("with repair, replicas should converge")
	}
	if plainRes.ServerLate != repairedRes.ServerLate {
		t.Fatalf("physical lateness must be policy-independent: %d vs %d",
			plainRes.ServerLate, repairedRes.ServerLate)
	}
	if len(plainRes.InteractionTimes) != len(repairedRes.InteractionTimes) {
		t.Fatal("same deliveries expected")
	}
	for i := range plainRes.InteractionTimes {
		if plainRes.InteractionTimes[i] != repairedRes.InteractionTimes[i] {
			t.Fatal("user-perceived interaction times should not depend on the repair policy")
		}
	}
}

func TestTimewarpCleanAtD(t *testing.T) {
	// At δ = D nothing is late, so timewarp never engages.
	in, a := testInstance(t, 53, 20, 3)
	off, err := in.ComputeOffsets(a)
	if err != nil {
		t.Fatal(err)
	}
	wl := UniformWorkload(in.NumClients(), in.NumClients(), 0, 4)
	res, err := Run(Config{Instance: in, Assignment: a, Delta: off.D, Offsets: off,
		Workload: wl, Repair: RepairTimewarp})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("δ = D with timewarp should be clean: %+v", res)
	}
	if res.Rollbacks != 0 || res.ClientArtifacts != 0 {
		t.Fatal("no rollbacks or artifacts expected at δ = D")
	}
}

func TestTimewarpRolledBackOpsCounted(t *testing.T) {
	// Force a deep rollback: drop nothing, but run at a δ small enough
	// that ops from far clients arrive after several later ops executed.
	in, a := testInstance(t, 54, 25, 3)
	off, err := in.ComputeOffsets(a)
	if err != nil {
		t.Fatal(err)
	}
	// Dense workload so there is always something to roll back.
	wl := UniformWorkload(in.NumClients(), 4*in.NumClients(), 0, 0.5)
	res, err := Run(Config{Instance: in, Assignment: a, Delta: off.D * 0.6, Offsets: off,
		Workload: wl, Repair: RepairTimewarp})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rollbacks == 0 {
		t.Fatal("expected rollbacks")
	}
	if res.RolledBackOps == 0 {
		t.Fatal("a dense workload at δ = 0.6·D should re-execute some ops")
	}
}

func TestTimewarpUnderJitterArtifactsScaleWithPercentile(t *testing.T) {
	// The Section II-E trade-off with repair: higher modeled percentile →
	// fewer artifacts. (The jitteraware example reports the same without
	// repair; here the artifact counter is the metric.)
	in, a := testInstance(t, 55, 25, 3)
	offLow, err := in.ComputeOffsets(a)
	if err != nil {
		t.Fatal(err)
	}
	run := func(deltaFactor float64, seed int64) int {
		lat := sim.JitteredLatency(latency.ScaledLike(25, 55), 0.3, rand.New(rand.NewSource(seed))) // testInstance's matrix
		wl := UniformWorkload(in.NumClients(), 3*in.NumClients(), 0, 4)
		res, err := Run(Config{Instance: in, Assignment: a, Delta: offLow.D * deltaFactor,
			Offsets: offLow, Workload: wl, Latency: lat, Repair: RepairTimewarp})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rollbacks + res.ClientArtifacts
	}
	atD := run(1.0, 7)
	atHigh := run(1.6, 7) // ≈ planning a higher latency percentile
	if atD == 0 {
		t.Fatal("jitter at δ = D should cause artifacts")
	}
	if atHigh >= atD {
		t.Fatalf("larger headroom should reduce artifacts: %d vs %d", atHigh, atD)
	}
}
