package shard_test

import (
	"context"
	"runtime"
	"testing"

	"diacap/internal/core"
	"diacap/internal/shard"
	"diacap/internal/testkit"
)

// The snapshot read path (Current, Epoch) is annotated
// //dialint:hotpath: every live operation and every reader poll goes
// through it, so it must stay a bare atomic pointer load with no
// allocation and no lock.
func TestSnapshotReadZeroAlloc(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping")
	}
	servers, clients := testCoords(t, 40, 4, 3)
	p, err := shard.New(shard.Options{Servers: servers, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 10; c++ {
		if _, err := p.Join(context.Background(), c); err != nil {
			t.Fatal(err)
		}
	}
	var snap *shard.Snapshot
	var epoch uint64
	if avg := testing.AllocsPerRun(1000, func() {
		snap = p.Current()
		epoch = p.Epoch()
	}); avg != 0 {
		t.Errorf("snapshot read allocates %.2f times per run, want 0", avg)
	}
	if snap == nil || snap.Epoch != epoch {
		t.Fatalf("inconsistent read: snapshot epoch %d, Epoch() %d", snap.Epoch, epoch)
	}
}

// TestRepairNoMovesZeroAlloc pins that a repair pass that moves nobody
// (GreedyJoin's, on every replayed event) allocates nothing: it diffs
// no assignment and publishes no epoch.
func TestRepairNoMovesZeroAlloc(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping")
	}
	servers, clients := testCoords(t, 40, 4, 3)
	p, err := shard.New(shard.Options{Servers: servers, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for c := 0; c < 30; c++ {
		if _, err := p.Join(ctx, c); err != nil {
			t.Fatal(err)
		}
	}
	epoch, moves := p.Epoch(), 0
	if avg := testing.AllocsPerRun(1000, func() { moves += p.Repair(ctx, 0) }); avg != 0 {
		t.Errorf("a repair that moves nobody allocates %.2f times per run, want 0", avg)
	}
	if moves != 0 || p.Epoch() != epoch {
		t.Fatalf("GreedyJoin's repair moved %d clients and published up to epoch %d (from %d)", moves, p.Epoch(), epoch)
	}
}

// TestPlaneWriteAllocs pins the allocations of one plane write on a
// servingPlane: a join, a leave, a strategy migrate (Migrate(c, -1))
// and a no-op migrate each allocate at most 8 times. Lower the ceiling
// when a write gets cheaper.
func TestPlaneWriteAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping")
	}
	const runs, ceiling = 100, 8
	p := servingPlane(t)
	ctx := context.Background()
	var active, inactive []int
	for c, s := range p.Current().Assignment {
		if s == core.Unassigned {
			inactive = append(inactive, c)
		} else {
			active = append(active, c)
		}
	}
	// Each write takes the next client of its pool, so no write repeats
	// a client and every one succeeds: the leaves take active clients
	// that the migrates after them do not touch.
	must := func(_ shard.OpResult, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	seat := p.Current().Assignment
	var j, l, m, n int
	for _, w := range []struct {
		name  string
		write func()
	}{
		{"join", func() { must(p.Join(ctx, inactive[j])); j++ }},
		{"leave", func() { must(p.Leave(ctx, active[l])); l++ }},
		{"strategy migrate", func() { must(p.Migrate(ctx, active[runs+1+m], -1)); m++ }},
		{"no-op migrate", func() { c := active[2*(runs+1)+n]; must(p.Migrate(ctx, c, seat[c])); n++ }},
	} {
		if avg := testing.AllocsPerRun(runs, w.write); avg > ceiling {
			t.Errorf("a %s allocates %.0f times per write, want at most %d", w.name, avg, ceiling)
		}
	}
}

// TestNewRetainedHeap pins what a plane keeps alive at perfbench's
// serving shape (32 servers, 4800 clients): the instance's
// client-server and server-server tables (~1.2 MB) and the evaluator,
// ~1.43 MiB in all, not the node×node matrices they were once copied
// out of (~50 MB).
func TestNewRetainedHeap(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("the race detector changes what the heap retains")
	}
	servers, clients := testCoords(t, 4800, 32, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := shard.New(shard.Options{Servers: servers, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained > 7<<18 {
		t.Fatalf("shard.New retained %.2f MiB of heap, want under 1.75 MiB", float64(retained)/(1<<20))
	}
}
