package shard_test

import (
	"context"
	"runtime"
	"testing"

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
	p, err := shard.New(shard.Options{Shards: 2, Servers: servers, Clients: clients})
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
	p, err := shard.New(shard.Options{Shards: 2, Servers: servers, Clients: clients})
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

// TestNewRetainedHeap pins what a plane keeps alive at perfbench's
// serving shape (32 servers, 4800 clients, 4 shards): the instance's
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
	p, err := shard.New(shard.Options{Shards: 4, Servers: servers, Clients: clients})
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
