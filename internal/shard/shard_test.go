package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"diacap/internal/core"
	"diacap/internal/dynamic"
	"diacap/internal/latency"
	"diacap/internal/obs"
	"diacap/internal/shard"
)

// testCoords generates a seeded universe: ns server coordinates and n
// client coordinates from one synthetic pool.
func testCoords(t testing.TB, n, ns int, seed int64) (servers, clients []latency.Coord) {
	t.Helper()
	cs, err := latency.GenerateCoords(latency.DefaultConfig(n+ns), seed)
	if err != nil {
		t.Fatal(err)
	}
	return cs[:ns], cs[ns:]
}

// roundRobin lists the clients 0..n-1 group by group, client c in
// group c mod groups, ascending within each group. Tests that once ran
// a plane at several shard counts drive their clients in these orders
// instead, so each of their shards=N subtests still exercises its own
// case: N = 1 is ascending id order.
func roundRobin(n, groups int) []int {
	order := make([]int, 0, n)
	for g := range groups {
		for c := g; c < n; c += groups {
			order = append(order, c)
		}
	}
	return order
}

// globalD rebuilds the world from a snapshot assignment over the
// node×node matrix and returns its exact D — the oracle every published
// snapshot must bit-match.
func globalD(t testing.TB, servers, clients []latency.Coord, a []int) float64 {
	t.Helper()
	coords := append(append([]latency.Coord(nil), servers...), clients...)
	sidx := make([]int, len(servers))
	cidx := make([]int, len(clients))
	for k := range sidx {
		sidx[k] = k
	}
	for i := range cidx {
		cidx[i] = len(servers) + i
	}
	in, err := core.NewInstanceTrusted(latency.CoordsToMatrix(coords), sidx, cidx)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := in.NewEvaluator(a)
	if err != nil {
		t.Fatal(err)
	}
	return ev.D()
}

func bitsEq(t *testing.T, label string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %v (bits %x) != %v (bits %x)",
			label, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestPlaneSnapshotExactD drives random churn through a plane and
// checks, at every publish, that the published D is bit-identical
// to a fresh evaluator over the matrix-built world and that CertifiedD
// is that D.
func TestPlaneSnapshotExactD(t *testing.T) {
	servers, clients := testCoords(t, 180, 10, 1)
	p, err := shard.New(shard.Options{Servers: servers, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var active []int
	inactive := make([]int, len(clients))
	for i := range inactive {
		inactive[i] = i
	}
	for op := 0; op < 600; op++ {
		switch k := rng.Intn(3); {
		case k == 0 && len(inactive) > 0:
			i := rng.Intn(len(inactive))
			c := inactive[i]
			if _, err := p.Join(context.Background(), c); err != nil {
				t.Fatalf("op %d: join(%d): %v", op, c, err)
			}
			inactive[i] = inactive[len(inactive)-1]
			inactive = inactive[:len(inactive)-1]
			active = append(active, c)
		case k == 1 && len(active) > 0:
			i := rng.Intn(len(active))
			c := active[i]
			if _, err := p.Leave(context.Background(), c); err != nil {
				t.Fatalf("op %d: leave(%d): %v", op, c, err)
			}
			active[i] = active[len(active)-1]
			active = active[:len(active)-1]
			inactive = append(inactive, c)
		case len(active) > 0:
			c := active[rng.Intn(len(active))]
			target := -1
			if rng.Intn(2) == 0 {
				target = rng.Intn(len(servers))
			}
			if _, err := p.Migrate(context.Background(), c, target); err != nil {
				t.Fatalf("op %d: migrate(%d,%d): %v", op, c, target, err)
			}
		default:
			continue
		}
		s := p.Current()
		if op%10 == 0 {
			bitsEq(t, "snapshot D vs global evaluator", s.D, globalD(t, servers, clients, s.Assignment))
		}
		bitsEq(t, fmt.Sprintf("op %d: CertifiedD vs D", op), s.CertifiedD, s.D)
	}
	s := p.Current()
	bitsEq(t, "final snapshot D", s.D, globalD(t, servers, clients, s.Assignment))
	if st := p.EvaluatorStats(); st.Recomputes != 0 || st.EccScans != 0 {
		t.Fatalf("plane fell back to O(world) repair: %+v", st)
	}
	if s.Active != len(active) {
		t.Fatalf("snapshot active %d, want %d", s.Active, len(active))
	}
}

// TestPlaneEpochProtocol pins the conditional-read contract: At returns
// the snapshot only for the published epoch and a typed *ErrStaleEpoch
// carrying both epochs otherwise.
func TestPlaneEpochProtocol(t *testing.T) {
	servers, clients := testCoords(t, 40, 4, 3)
	p, err := shard.New(shard.Options{Servers: servers, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	first := p.Epoch()
	if first != 1 {
		t.Fatalf("initial epoch %d, want 1", first)
	}
	if _, err := p.At(first); err != nil {
		t.Fatalf("At(current): %v", err)
	}
	r, err := p.Join(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch != first+1 {
		t.Fatalf("epoch after join = %d, want %d", r.Epoch, first+1)
	}
	_, err = p.At(first)
	var stale *shard.ErrStaleEpoch
	if !errors.As(err, &stale) {
		t.Fatalf("At(retired) = %v, want *ErrStaleEpoch", err)
	}
	if stale.Requested != first || stale.Current != r.Epoch {
		t.Fatalf("stale epochs = %+v, want requested %d current %d", stale, first, r.Epoch)
	}
	// Rejected mutations must not burn epochs.
	if _, err := p.Join(context.Background(), 0); !errors.Is(err, core.ErrAlreadyAssigned) {
		t.Fatalf("double join: %v", err)
	}
	if p.Epoch() != r.Epoch {
		t.Fatalf("rejected mutation advanced the epoch to %d", p.Epoch())
	}
}

// TestPlaneOpErrors covers the typed rejection surface. Errors name
// clients by id.
func TestPlaneOpErrors(t *testing.T) {
	servers, clients := testCoords(t, 30, 3, 4)
	caps := make(core.Capacities, len(servers))
	for k := range caps {
		caps[k] = 30
	}
	p, err := shard.New(shard.Options{Servers: servers, Clients: clients, Capacities: caps})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Join(context.Background(), len(clients)); !errors.Is(err, shard.ErrUnknownClient) {
		t.Fatalf("join of unknown client: %v", err)
	}
	if _, err := p.Leave(context.Background(), 5); !errors.Is(err, core.ErrNotAssigned) {
		t.Fatalf("leave of inactive client: %v", err)
	}
	last := len(clients) - 1
	_, err = p.Leave(context.Background(), last)
	if want := fmt.Sprintf("leave of client %d", last); err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("leave of inactive client %d: %v, want it named", last, err)
	}
	if _, err := p.Migrate(context.Background(), 5, 0); !errors.Is(err, core.ErrNotAssigned) {
		t.Fatalf("migrate of inactive client: %v", err)
	}
	if _, err := p.Join(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	// A server id outside [0, |S|) is unknown to every write that names
	// one, and publishes nothing.
	epoch := p.Epoch()
	if _, err := p.Migrate(context.Background(), 5, len(servers)); !errors.Is(err, shard.ErrUnknownServer) {
		t.Fatalf("migrate to server %d of %d: %v", len(servers), len(servers), err)
	}
	if _, _, err := p.KillServer(context.Background(), len(servers)); !errors.Is(err, shard.ErrUnknownServer) {
		t.Fatalf("kill of server %d of %d: %v", len(servers), len(servers), err)
	}
	if _, err := p.RestartServer(context.Background(), -1); !errors.Is(err, shard.ErrUnknownServer) {
		t.Fatalf("restart of server -1: %v", err)
	}
	if p.Epoch() != epoch {
		t.Fatalf("a write naming an unknown server published epoch %d", p.Epoch())
	}
	if _, _, err := p.KillServer(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Migrate(context.Background(), 5, 0); !errors.Is(err, shard.ErrServerDown) {
		t.Fatalf("migrate to dead server: %v", err)
	}
	if _, err := p.RestartServer(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Migrate(context.Background(), 5, 0); err != nil {
		t.Fatalf("migrate to restarted server: %v", err)
	}
}

// TestPlaneCapacityExhaustion fills the world's two seats and checks
// the typed rejection after them. The clients join group by group, as
// in roundRobin but the last group first, and the seats
// are one pool in either order: every join succeeds exactly when the
// published view still admits a server.
func TestPlaneCapacityExhaustion(t *testing.T) {
	servers, clients := testCoords(t, 20, 2, 5)
	for _, groups := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", groups), func(t *testing.T) {
			p, err := shard.New(shard.Options{Servers: servers, Clients: clients, Capacities: core.Capacities{1, 1}})
			if err != nil {
				t.Fatal(err)
			}
			var order []int
			for g := groups - 1; g >= 0; g-- {
				for c := g; c < len(clients); c += groups {
					order = append(order, c)
				}
			}
			joined := 0
			for _, c := range order {
				v := p.View()
				open := v.Admissible(0) || v.Admissible(1)
				_, err := p.Join(context.Background(), c)
				if open != (err == nil) {
					t.Fatalf("join of client %d: err = %v, but the view admits a server: %t", c, err, open)
				}
				if err == nil {
					joined++
				} else if !errors.Is(err, shard.ErrNoCapacity) || !errors.Is(err, dynamic.ErrCapacityExhausted) {
					t.Fatalf("join of client %d: %v, want ErrNoCapacity wrapping ErrCapacityExhausted", c, err)
				}
			}
			if joined != 2 {
				t.Fatalf("joined %d clients on 2 seats", joined)
			}
		})
	}
}

// TestPlaneKillsEvacuateIntoWorldRoom is the serving shape (32
// servers, 4800 clients, 173 seats per server, GreedyJoin) with
// servers 0–3 killed in turn: 28 × 173 = 4844 seats remain for 4800
// clients, so every evacuation fits the world and must succeed,
// leaving no server over its capacity. The clients join in the
// round-robin order of the case's group count: seed 1 in 1, 4 and 16
// groups, seeds 2 and 3 in 16, where a per-shard split of the seats
// once refused the third kill.
func TestPlaneKillsEvacuateIntoWorldRoom(t *testing.T) {
	cases := []struct {
		seed   int64
		groups int
	}{{1, 1}, {1, 4}, {1, 16}, {2, 16}, {3, 16}}
	if testing.Short() {
		cases = cases[:3]
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("seed=%d/shards=%d", tc.seed, tc.groups), func(t *testing.T) {
			ctx := context.Background()
			servers, clients := testCoords(t, 4800, 32, tc.seed)
			caps := core.UniformCapacities(len(servers), 173)
			p, err := shard.New(shard.Options{Servers: servers, Clients: clients, Capacities: caps})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range roundRobin(len(clients), tc.groups) {
				if _, err := p.Join(ctx, c); err != nil {
					t.Fatal(err)
				}
			}
			for k := 0; k < 4; k++ {
				if _, _, err := p.KillServer(ctx, k); err != nil {
					t.Fatalf("kill of server %d: %v", k, err)
				}
				s := p.Current()
				if s.Active != len(clients) {
					t.Fatalf("kill of server %d: %d of %d clients active", k, s.Active, len(clients))
				}
				for j, load := range s.Loads {
					if load > caps[j] || (!s.Alive[j] && load > 0) {
						t.Fatalf("kill of server %d: server %d (alive %t) holds %d of %d seats", k, j, s.Alive[j], load, caps[j])
					}
				}
			}
		})
	}
}

// TestPlaneKillRestart kills a server, checks the evacuation left a
// consistent exact snapshot, and restarts it.
func TestPlaneKillRestart(t *testing.T) {
	servers, clients := testCoords(t, 90, 6, 6)
	p, err := shard.New(shard.Options{Servers: servers, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < len(clients); c++ {
		if _, err := p.Join(context.Background(), c); err != nil {
			t.Fatal(err)
		}
	}
	victim := 2
	if p.Current().Loads[victim] == 0 {
		t.Skipf("server %d drew no load under this seed", victim)
	}
	_, evacuated, err := p.KillServer(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	if evacuated == 0 {
		t.Fatal("kill evacuated nobody despite load")
	}
	s := p.Current()
	if s.Loads[victim] != 0 {
		t.Fatalf("dead server still has load %d", s.Loads[victim])
	}
	if s.Alive[victim] {
		t.Fatal("snapshot reports dead server alive")
	}
	if s.Active != len(clients) {
		t.Fatalf("evacuation lost clients: active %d of %d", s.Active, len(clients))
	}
	bitsEq(t, "post-kill snapshot D", s.D, globalD(t, servers, clients, s.Assignment))
	// Double kill is an epoch-neutral no-op.
	r2, evac2, err := p.KillServer(context.Background(), victim)
	if err != nil || evac2 != 0 || r2.Epoch != s.Epoch {
		t.Fatalf("double kill: r=%+v evac=%d err=%v", r2, evac2, err)
	}
	if _, err := p.RestartServer(context.Background(), victim); err != nil {
		t.Fatal(err)
	}
	if !p.Current().Alive[victim] {
		t.Fatal("restart did not revive the server")
	}
}

// TestPlaneLockFreeReads hammers Current/At and LastRepair from readers
// while a writer mutates and repairs — the race detector certifies the
// lock-free read claim.
func TestPlaneLockFreeReads(t *testing.T) {
	servers, clients := testCoords(t, 60, 4, 8)
	reg := obs.NewRegistry()
	shard.Preregister(reg)
	p, err := shard.New(shard.Options{Servers: servers, Clients: clients, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := p.Current()
				if s.D < 0 {
					panic("negative D")
				}
				_, _ = p.At(s.Epoch)
				_ = p.LastRepair()
			}
		}()
	}
	for c := 0; c < len(clients); c++ {
		if _, err := p.Join(context.Background(), c); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < len(clients); c += 2 {
		if _, err := p.Migrate(context.Background(), c, -1); err != nil {
			t.Fatal(err)
		}
		p.Repair(context.Background(), float64(c))
	}
	close(stop)
	wg.Wait()
}
