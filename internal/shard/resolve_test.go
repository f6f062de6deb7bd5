package shard_test

import (
	"context"
	"math"
	"testing"

	"diacap/internal/core"
	"diacap/internal/latency"
	"diacap/internal/perfkit"
	"diacap/internal/shard"
	"diacap/internal/testkit"
)

// resolvePlane builds a small joined plane for resolve tests.
func resolvePlane(t testing.TB, caps core.Capacities) (*shard.Plane, []latency.Coord, []latency.Coord) {
	t.Helper()
	servers, clients := testCoords(t, 40, 4, 3)
	p, err := shard.New(shard.Options{Servers: servers, Clients: clients, Capacities: caps})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 20; c++ {
		if _, err := p.Join(context.Background(), c); err != nil {
			t.Fatal(err)
		}
	}
	return p, servers, clients
}

// Resolution must pick the nearest alive, under-capacity server for
// every query point — checked against a direct scalar scan.
func TestResolveIntoMatchesScalarScan(t *testing.T) {
	p, servers, clients := resolvePlane(t, nil)
	v := p.View()
	if v.Snap == nil || v.Snap.Epoch != p.Epoch() {
		t.Fatalf("view pinned snapshot mismatch")
	}
	queries := clients[20:30]
	cs := perfkit.NewFlatMatrix(0, 0)
	out := make([]int, len(queries))
	lat := make([]float64, len(queries))
	v.ResolveInto(queries, cs, out, lat)
	for i, q := range queries {
		best, bestD := -1, math.Inf(1)
		for k, sc := range servers {
			if !v.Admissible(k) {
				continue
			}
			if d := q.LatencyTo(sc); d < bestD {
				best, bestD = k, d
			}
		}
		if out[i] != best || lat[i] != bestD {
			t.Fatalf("query %d: got server %d lat %v, want %d lat %v", i, out[i], lat[i], best, bestD)
		}
	}
}

// Dead servers must never be chosen: kill all servers but the last,
// whose room takes every evacuee, and check every resolution lands on
// a live one.
func TestResolveIntoMasksDeadServers(t *testing.T) {
	p, servers, clients := resolvePlane(t, nil)
	queries := clients[20:25]
	cs := perfkit.NewFlatMatrix(0, 0)
	out := make([]int, len(queries))
	lat := make([]float64, len(queries))
	for k := 0; k < len(servers)-1; k++ {
		if _, _, err := p.KillServer(context.Background(), k); err != nil {
			t.Fatal(err)
		}
		v := p.View()
		v.ResolveInto(queries, cs, out, lat)
		for i := range queries {
			if out[i] <= k {
				t.Fatalf("query %d resolved to dead server %d (killed through %d)", i, out[i], k)
			}
		}
	}
}

// With every server inadmissible — here, saturated because the joined
// population exactly exhausts the total capacity — the whole batch
// resolves to (-1, -1).
func TestResolveIntoAllBlocked(t *testing.T) {
	servers, clients := testCoords(t, 40, 4, 3)
	caps := core.Capacities{10, 10, 10, 10}
	p, err := shard.New(shard.Options{Servers: servers, Clients: clients, Capacities: caps})
	if err != nil {
		t.Fatal(err)
	}
	for c := range clients {
		if _, err := p.Join(context.Background(), c); err != nil {
			t.Fatal(err)
		}
	}
	v := p.View()
	for k := 0; k < v.NumServers(); k++ {
		if v.Admissible(k) {
			t.Fatalf("server %d admissible at load %d / cap %d", k, v.Snap.Loads[k], caps[k])
		}
	}
	queries := clients[:5]
	cs := perfkit.NewFlatMatrix(0, 0)
	out := make([]int, len(queries))
	lat := make([]float64, len(queries))
	v.ResolveInto(queries, cs, out, lat)
	for i := range queries {
		if out[i] != -1 || lat[i] != -1 {
			t.Fatalf("query %d: got (%d, %v) with all servers saturated, want (-1, -1)", i, out[i], lat[i])
		}
	}
}

// Servers at their global capacity are inadmissible for new
// attachments; freeing a seat makes them admissible again.
func TestResolveIntoRespectsCapacity(t *testing.T) {
	p, _, _ := resolvePlane(t, core.Capacities{40, 40, 40, 40})
	snap := p.Current()
	// Rebuild the same world with one server's capacity shrunk to its
	// current load, so that server is exactly saturated.
	loaded := 0
	for k, l := range snap.Loads {
		if l > snap.Loads[loaded] {
			loaded = k
		}
	}
	if snap.Loads[loaded] == 0 {
		t.Fatal("no loaded server to saturate")
	}
	caps2 := core.Capacities{40, 40, 40, 40}
	caps2[loaded] = snap.Loads[loaded]
	servers2, clients2 := testCoords(t, 40, 4, 3)
	p3, err := shard.New(shard.Options{Servers: servers2, Clients: clients2, Capacities: caps2})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 20; c++ {
		if _, err := p3.Join(context.Background(), c); err != nil {
			t.Fatal(err)
		}
	}
	v := p3.View()
	sat := -1
	for k := 0; k < v.NumServers(); k++ {
		if v.Snap.Loads[k] >= caps2[k] {
			sat = k
			if v.Admissible(k) {
				t.Fatalf("server %d at capacity (%d/%d) reported admissible", k, v.Snap.Loads[k], caps2[k])
			}
		}
	}
	if sat == -1 {
		t.Skip("no server reached its shrunken capacity under this seed")
	}
	queries := clients2[20:30]
	cs := perfkit.NewFlatMatrix(0, 0)
	out := make([]int, len(queries))
	lat := make([]float64, len(queries))
	v.ResolveInto(queries, cs, out, lat)
	for i := range queries {
		if out[i] == sat {
			t.Fatalf("query %d resolved to saturated server %d", i, sat)
		}
	}
}

// ViewAt follows the conditional-read protocol: current epoch resolves,
// stale epoch reports ErrStaleEpoch with both epochs.
func TestViewAtStaleEpoch(t *testing.T) {
	p, _, _ := resolvePlane(t, nil)
	epoch := p.Epoch()
	if v, err := p.ViewAt(epoch); err != nil || v.Snap.Epoch != epoch {
		t.Fatalf("ViewAt(current) = %+v, %v", v, err)
	}
	if _, err := p.Join(context.Background(), 30); err != nil {
		t.Fatal(err)
	}
	_, err := p.ViewAt(epoch)
	stale, ok := err.(*shard.ErrStaleEpoch)
	if !ok {
		t.Fatalf("ViewAt(stale) error = %v, want *ErrStaleEpoch", err)
	}
	if stale.Requested != epoch || stale.Current != p.Epoch() {
		t.Fatalf("stale epochs = %+v, want requested %d current %d", stale, epoch, p.Epoch())
	}
}

// Batch resolution must be bit-identical to resolving the same points
// one at a time against the same epoch — the property the batch
// endpoint's differential test builds on.
func TestResolveIntoBatchEqualsSequential(t *testing.T) {
	p, _, clients := resolvePlane(t, core.Capacities{40, 40, 40, 40})
	queries := clients[20:40]
	v := p.View()
	cs := perfkit.NewFlatMatrix(0, 0)
	out := make([]int, len(queries))
	lat := make([]float64, len(queries))
	v.ResolveInto(queries, cs, out, lat)
	one := make([]int, 1)
	oneLat := make([]float64, 1)
	for i, q := range queries {
		v.ResolveInto([]latency.Coord{q}, cs, one, oneLat)
		if one[0] != out[i] || oneLat[0] != lat[i] {
			t.Fatalf("query %d: sequential (%d, %v) != batch (%d, %v)", i, one[0], oneLat[0], out[i], lat[i])
		}
	}
}

// The steady-state resolve path must not allocate: the view read is an
// atomic load, and ResolveInto reuses the caller's scratch matrix.
func TestResolveZeroAlloc(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping")
	}
	p, _, clients := resolvePlane(t, nil)
	queries := clients[20:36]
	cs := perfkit.NewFlatMatrix(len(queries), p.NumServers())
	out := make([]int, len(queries))
	lat := make([]float64, len(queries))
	v := p.View()
	v.ResolveInto(queries, cs, out, lat) // warm the scratch to steady-state shape
	if avg := testing.AllocsPerRun(500, func() {
		v = p.View()
		v.ResolveInto(queries, cs, out, lat)
	}); avg != 0 {
		t.Errorf("resolve allocates %.2f times per run, want 0", avg)
	}
}
