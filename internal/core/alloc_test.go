package core_test

import (
	"testing"

	"diacap/internal/core"
	"diacap/internal/latency"
	"diacap/internal/testkit"
)

// The Apply* delta path (applyTracked → moveIncremental) and PeekJoin
// are annotated //dialint:hotpath: churn events fire on every live
// join/leave/migrate, each join is priced by one PeekJoin per server,
// and a control plane sustains thousands per second. Once the
// incremental engine's heaps have grown to steady state, a migrate must
// not allocate — with or without a delta hook installed — and a peek
// never does.
func TestApplyMoveZeroAlloc(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping")
	}
	m, err := latency.SyntheticInternet(latency.DefaultConfig(80), 5)
	if err != nil {
		t.Fatal(err)
	}
	in := diffInstance(t, m, 8, 5)
	ev, err := in.NewEvaluator(core.NewAssignment(in.NumClients()))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < in.NumClients(); c++ {
		if _, err := ev.ApplyJoin(c, c%in.NumServers()); err != nil {
			t.Fatal(err)
		}
	}
	// Ping-pong one client between two servers. The toggle keeps every
	// step a real migrate (never the no-op fast path).
	next := 1
	step := func() {
		if _, err := ev.ApplyMove(0, next); err != nil {
			t.Fatal(err)
		}
		next ^= 3 // 1 <-> 2
	}
	// Warm the engine past its growth phase: the lazy-deletion global
	// heap doubles a few times before its rebuild cycle settles on a
	// fixed capacity, and the per-server distance heaps stop growing
	// once the churned values have been seen.
	for i := 0; i < 2000; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(500, step); avg != 0 {
		t.Errorf("ApplyMove (no hook) allocates %.2f times per run, want 0", avg)
	}

	// The hook path builds the DeltaEvent and stats deltas on the stack;
	// installing a listener must not push the operation off the
	// zero-alloc path.
	var events int
	ev.SetDeltaHook(func(e core.DeltaEvent) { events++ })
	for i := 0; i < 2000; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(500, step); avg != 0 {
		t.Errorf("ApplyMove (with hook) allocates %.2f times per run, want 0", avg)
	}
	if events == 0 {
		t.Fatal("delta hook never fired")
	}

	// PeekJoin prices every join the control plane places: detach one
	// client and peek it onto each server in turn.
	if _, err := ev.ApplyLeave(1); err != nil {
		t.Fatal(err)
	}
	k := 0
	peek := func() {
		ev.PeekJoin(1, k)
		k = (k + 1) % in.NumServers()
	}
	if avg := testing.AllocsPerRun(500, peek); avg != 0 {
		t.Errorf("PeekJoin allocates %.2f times per run, want 0", avg)
	}
}
