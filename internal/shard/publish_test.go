package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"diacap/internal/core"
	"diacap/internal/dynamic"
	"diacap/internal/latency"
	"diacap/internal/perfkit"
)

// referenceSnapshot recomputes from scratch every value publishLocked
// publishes: the assignment, loads and active counts by walking every
// shard's clients through its evaluator, each shard's certified bound by
// folding its clients' (cell, server) occupancy over distances rebuilt
// from the cell geometry, and D and CertifiedD by fresh pair scans over
// the merged vectors. Along the way it checks the plane's own cell
// counts and incremental bounds against the walk, drifted or not.
func referenceSnapshot(t testing.TB, p *Plane) *Snapshot {
	t.Helper()
	ns := len(p.opts.Servers)
	snap := &Snapshot{
		Epoch:      p.epoch,
		Assignment: make([]int, len(p.opts.Clients)),
		Loads:      make([]int, ns),
		MaxRho:     p.maxRho,
		Shards:     make([]ShardSummary, len(p.shards)),
		Alive:      slices.Clone(p.alive),
	}
	occupancy := make([]int32, len(p.cells)*ns)
	ecc := make([]float64, ns)
	bound := make([]float64, ns)
	for k := range ecc {
		ecc[k], bound[k] = -1, -1
	}
	for _, sh := range p.shards {
		sum := ShardSummary{
			Shard:    sh.id,
			D:        sh.ev.D(),
			Ecc:      make([]float64, ns),
			BoundEcc: make([]float64, ns),
		}
		for k := 0; k < ns; k++ {
			sum.Ecc[k] = sh.ev.Eccentricity(k)
			sum.BoundEcc[k] = -1
		}
		for i, c := range sh.clients {
			s := sh.ev.ServerOf(i)
			snap.Assignment[c] = s
			if s == core.Unassigned {
				continue
			}
			snap.Loads[s]++
			sum.Active++
			j := p.clientCell[c]
			occupancy[j*ns+s]++
			cell := p.cells[j]
			if v := max(cell.Rep.LatencyTo(p.opts.Servers[s]), 1e-9) + cell.Rho; v > sum.BoundEcc[s] {
				sum.BoundEcc[s] = v
			}
		}
		for k, v := range sum.BoundEcc {
			if math.Float64bits(v) != math.Float64bits(sh.bound[k]) {
				t.Fatalf("shard %d: incremental bound on server %d is %v, the fold gives %v", sh.id, k, sh.bound[k], v)
			}
		}
		if p.drifted {
			copy(sum.BoundEcc, sum.Ecc)
		}
		snap.Shards[sh.id] = sum
		snap.Active += sum.Active
		for k := 0; k < ns; k++ {
			ecc[k] = max(ecc[k], sum.Ecc[k])
			bound[k] = max(bound[k], sum.BoundEcc[k])
		}
	}
	if !slices.Equal(occupancy, p.cellLoad) {
		t.Fatalf("cell occupancy drifted from the evaluators' assignment")
	}
	ss := p.shards[0].in.FlatServerServer()
	snap.D = perfkit.MaxPathEcc(ss, ecc)
	snap.CertifiedD = perfkit.MaxPathEcc(ss, bound)
	return snap
}

// snapshotDiff describes the first difference between two snapshots,
// comparing every float by its bits, or returns "".
func snapshotDiff(got, want *Snapshot) string {
	bits := math.Float64bits
	eqF := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return bits(x) == bits(y) })
	}
	switch {
	case got.Epoch != want.Epoch:
		return fmt.Sprintf("epoch %d, want %d", got.Epoch, want.Epoch)
	case !slices.Equal(got.Assignment, want.Assignment):
		return "assignment differs"
	case !slices.Equal(got.Loads, want.Loads):
		return fmt.Sprintf("loads %v, want %v", got.Loads, want.Loads)
	case !slices.Equal(got.Alive, want.Alive):
		return fmt.Sprintf("alive %v, want %v", got.Alive, want.Alive)
	case got.Active != want.Active:
		return fmt.Sprintf("active %d, want %d", got.Active, want.Active)
	case bits(got.D) != bits(want.D):
		return fmt.Sprintf("D %v, want %v", got.D, want.D)
	case bits(got.CertifiedD) != bits(want.CertifiedD):
		return fmt.Sprintf("CertifiedD %v, want %v", got.CertifiedD, want.CertifiedD)
	case bits(got.MaxRho) != bits(want.MaxRho):
		return fmt.Sprintf("MaxRho %v, want %v", got.MaxRho, want.MaxRho)
	case len(got.Shards) != len(want.Shards):
		return fmt.Sprintf("%d shard summaries, want %d", len(got.Shards), len(want.Shards))
	}
	for i, g := range got.Shards {
		w := want.Shards[i]
		switch {
		case g.Shard != w.Shard || g.Active != w.Active || bits(g.D) != bits(w.D):
			return fmt.Sprintf("shard %d summary (shard %d, active %d, D %v), want (%d, %d, %v)",
				i, g.Shard, g.Active, g.D, w.Shard, w.Active, w.D)
		case !eqF(g.Ecc, w.Ecc):
			return fmt.Sprintf("shard %d Ecc %v, want %v", i, g.Ecc, w.Ecc)
		case !eqF(g.BoundEcc, w.BoundEcc):
			return fmt.Sprintf("shard %d BoundEcc %v, want %v", i, g.BoundEcc, w.BoundEcc)
		}
	}
	return ""
}

// checkPublished fails t unless the published snapshot is bit-equal to
// the from-scratch reference of the plane's current state.
func checkPublished(t testing.TB, p *Plane, label string) {
	t.Helper()
	if d := snapshotDiff(p.Current(), referenceSnapshot(t, p)); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

// repairing is the differential tapes' strategy: GreedyJoin placements
// plus repair moves, so RepairShard mutates evaluators directly.
func repairing(in *core.Instance) dynamic.Strategy { return dynamic.NewGreedyJoinRepair(in, 2) }

// TestPlanePublishDifferential replays seeded tapes of every plane
// write on 1, 4 and 16 shards, capacitated and not, and checks after
// every operation that the published snapshot is bit-equal to the
// from-scratch reference. Each tape mixes joins, leaves, explicit,
// strategy and no-op migrates, repairs, kills, restarts, re-solves and
// rejected writes; then fills the plane and kills servers until one
// evacuation fails (capacitated) or one server is left, restarts them,
// drifts the coordinates and runs more of the mix.
func TestPlanePublishDifferential(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		for _, capped := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/capped=%t", shards, capped), func(t *testing.T) {
				publishTape(t, shards, capped)
			})
		}
	}
}

func publishTape(t *testing.T, shards int, capped bool) {
	const nc, ns = 240, 8
	cs, err := latency.GenerateCoords(latency.DefaultConfig(nc+ns), 7)
	if err != nil {
		t.Fatal(err)
	}
	var caps core.Capacities
	if capped {
		caps = make(core.Capacities, ns)
		for k := range caps {
			caps[k] = (nc*13/10 + ns - 1) / ns
		}
	}
	p, err := New(Options{Shards: shards, Servers: cs[:ns], Clients: cs[ns:], Capacities: caps,
		MaxCells: 120, Strategy: repairing})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumShards() != shards {
		t.Fatalf("plane has %d shards, want %d", p.NumShards(), shards)
	}
	checkPublished(t, p, "new")
	ctx := context.Background()
	seed := int64(shards)
	if capped {
		seed += 100
	}
	rng := rand.New(rand.NewSource(seed))
	// pick returns a random client whose activity is want, or -1.
	pick := func(want bool) int {
		a := p.Current().Assignment
		start := rng.Intn(nc)
		for i := range nc {
			if c := (start + i) % nc; (a[c] != core.Unassigned) == want {
				return c
			}
		}
		return -1
	}
	liveCount := func() int {
		n := 0
		for _, up := range p.Current().Alive {
			if up {
				n++
			}
		}
		return n
	}
	// roomWithout reports whether the live servers other than s have
	// room for s's clients.
	roomWithout := func(s int) bool {
		if caps == nil {
			return true
		}
		snap := p.Current()
		room := 0
		for k, up := range snap.Alive {
			if up && k != s {
				room += caps[k] - snap.Loads[k]
			}
		}
		return room >= snap.Loads[s]
	}
	// step runs one random write and names it. A write may be refused
	// (no room, a dead target, a capped migrate); checkPublished then
	// verifies that it left the published state alone, so step ignores
	// the refusals it expects.
	step := func(i int) string {
		switch k := rng.Intn(100); {
		case k < 35:
			if c := pick(false); c >= 0 {
				p.Join(ctx, c)
				return fmt.Sprintf("join %d", c)
			}
		case k < 50:
			if c := pick(true); c >= 0 {
				p.Leave(ctx, c)
				return fmt.Sprintf("leave %d", c)
			}
		case k < 60:
			if c := pick(true); c >= 0 {
				s := rng.Intn(ns)
				p.Migrate(ctx, c, s)
				return fmt.Sprintf("migrate %d to %d", c, s)
			}
		case k < 70:
			if c := pick(true); c >= 0 {
				p.Migrate(ctx, c, -1)
				return fmt.Sprintf("strategy migrate %d", c)
			}
		case k < 74:
			if c := pick(true); c >= 0 {
				p.Migrate(ctx, c, p.Current().Assignment[c])
				return fmt.Sprintf("no-op migrate %d", c)
			}
		case k < 84:
			s := rng.Intn(p.NumShards())
			if _, err := p.RepairShard(ctx, s, float64(i)); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("repair shard %d", s)
		case k < 88:
			// A kill here must evacuate: a failed evacuation strands the
			// rest of the server's clients on it until it restarts, and
			// a Resolve over such a shard fails.
			if s := rng.Intn(ns); liveCount() > 2 && roomWithout(s) {
				if _, _, err := p.KillServer(ctx, s); err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("kill %d", s)
			}
		case k < 94:
			s := rng.Intn(ns)
			if _, err := p.RestartServer(ctx, s); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("restart %d", s)
		case k < 97:
			if _, _, err := p.Resolve(ctx, "Greedy", int64(i)); err != nil {
				t.Fatal(err)
			}
			return "resolve"
		default:
			c := pick(false)
			if _, err := p.Leave(ctx, c); err == nil {
				t.Fatalf("leave of inactive client %d succeeded", c)
			}
			if _, err := p.Join(ctx, nc); !errors.Is(err, ErrUnknownClient) {
				t.Fatalf("join of unknown client: %v", err)
			}
			return fmt.Sprintf("rejected writes on %d", c)
		}
		return "skip"
	}
	for i := range 500 {
		what := step(i)
		checkPublished(t, p, fmt.Sprintf("op %d (%s)", i, what))
	}

	for k := range ns {
		p.RestartServer(ctx, k)
		checkPublished(t, p, fmt.Sprintf("restart %d", k))
	}
	for c := range nc {
		if p.Current().Assignment[c] == core.Unassigned {
			p.Join(ctx, c)
			checkPublished(t, p, fmt.Sprintf("fill join %d", c))
		}
	}
	failed := false
	for k := 0; k < ns-1 && !failed; k++ {
		_, _, err := p.KillServer(ctx, k)
		failed = err != nil
		checkPublished(t, p, fmt.Sprintf("kill %d (err %v)", k, err))
	}
	if capped != failed {
		t.Fatalf("capacitated %t, but an evacuation failed: %t", capped, failed)
	}
	for k := range ns {
		p.RestartServer(ctx, k)
		checkPublished(t, p, fmt.Sprintf("restart %d", k))
	}

	moved := slices.Clone(cs)
	for i := range moved {
		moved[i].X += 10 * rng.NormFloat64()
		moved[i].Y += 10 * rng.NormFloat64()
	}
	if err := p.ApplyDrift(ctx, moved); err != nil {
		t.Fatal(err)
	}
	checkPublished(t, p, "drift")
	for i := range 150 {
		what := step(500 + i)
		checkPublished(t, p, fmt.Sprintf("post-drift op %d (%s)", i, what))
	}
}

// boundPlane builds a one-shard plane of singleton cells (ρ = 0) over
// servers at (0,0) and (1000,0) and the given clients, so each client's
// bound on server 0 is its own distance to the origin.
func boundPlane(t *testing.T, clients []latency.Coord) *Plane {
	t.Helper()
	p, err := New(Options{
		Servers: []latency.Coord{{}, {X: 1000}},
		Clients: clients,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.cells) != len(clients) || p.maxRho != 0 {
		t.Fatalf("want %d singleton cells, got %d (max ρ %v)", len(clients), len(p.cells), p.maxRho)
	}
	ctx := context.Background()
	for c := range clients {
		if _, err := p.Join(ctx, c); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Migrate(ctx, c, 0); err != nil {
			t.Fatal(err)
		}
	}
	checkPublished(t, p, "setup")
	return p
}

// boundStep runs one write and checks the published bound on server 0.
func boundStep(t *testing.T, p *Plane, label string, op func() error, want float64) {
	t.Helper()
	if err := op(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	checkPublished(t, p, label)
	if got := p.Current().Shards[0].BoundEcc[0]; got != want {
		t.Fatalf("%s: bound on server 0 is %v, want %v", label, got, want)
	}
}

// TestPlaneBoundFarthestCellEmpties pins the rescan rule: a cell leaving
// that does not realize a server's bound keeps it, and the farthest
// occupied cell emptying drops it to the next farthest, then to -1.
func TestPlaneBoundFarthestCellEmpties(t *testing.T) {
	p := boundPlane(t, []latency.Coord{{X: 10}, {X: 20}, {X: 30}})
	ctx := context.Background()
	leave := func(c int) func() error {
		return func() error { _, err := p.Leave(ctx, c); return err }
	}
	boundStep(t, p, "inner cell leaves", leave(1), 30)
	boundStep(t, p, "farthest cell leaves", leave(2), 10)
	boundStep(t, p, "farthest cell rejoins", func() error {
		if _, err := p.Join(ctx, 2); err != nil {
			return err
		}
		_, err := p.Migrate(ctx, 2, 0)
		return err
	}, 30)
	boundStep(t, p, "farthest cell moves away", func() error { _, err := p.Migrate(ctx, 2, 1); return err }, 10)
	boundStep(t, p, "last cell leaves", leave(0), -1)
}

// TestPlaneBoundTie pins two cells tying for a server's bound: the first
// to empty leaves the bound to the other, and the second drops it.
func TestPlaneBoundTie(t *testing.T) {
	p := boundPlane(t, []latency.Coord{{X: 10}, {X: 30}, {X: -30}})
	ctx := context.Background()
	leave := func(c int) func() error {
		return func() error { _, err := p.Leave(ctx, c); return err }
	}
	boundStep(t, p, "one tied cell leaves", leave(1), 30)
	boundStep(t, p, "the other tied cell leaves", leave(2), 10)
}

// TestPlaneDriftRescansPairs pins the pair-scan cache reset on drift: a
// drift that moves server 1 and its one client by the same exact offset
// leaves every eccentricity's bits unchanged but moves the server-server
// distance, and so D.
func TestPlaneDriftRescansPairs(t *testing.T) {
	servers := []latency.Coord{{}, {X: 100}}
	clients := []latency.Coord{{X: -3}, {X: 104}}
	p, err := New(Options{Servers: servers, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for c, s := range []int{0, 1} {
		if _, err := p.Join(ctx, c); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Migrate(ctx, c, s); err != nil {
			t.Fatal(err)
		}
	}
	before := p.Current()
	moved := []latency.Coord{servers[0], {X: 200}, clients[0], {X: 204}}
	if err := p.ApplyDrift(ctx, moved); err != nil {
		t.Fatal(err)
	}
	checkPublished(t, p, "drift")
	after := p.Current()
	for k, v := range after.Shards[0].Ecc {
		if math.Float64bits(v) != math.Float64bits(before.Shards[0].Ecc[k]) {
			t.Fatalf("drift moved server %d's eccentricity %v → %v; the case needs it fixed", k, before.Shards[0].Ecc[k], v)
		}
	}
	if after.D == before.D {
		t.Fatalf("drift left D at %v", after.D)
	}
}

// FuzzPlaneOps decodes a short op tape over a small plane and checks
// every epoch against the from-scratch reference. Five header bytes
// shape the plane: clients (2–40), servers (1–6), shards (1–4) and a
// repairing strategy, capacities (1–8 per server) and the cell budget
// (1–16 cells), and the coordinate seed. Each further byte pair is one
// operation and its argument; many are refused, and a refused write
// must leave the published state alone.
func FuzzPlaneOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		nc, ns := 2+int(data[0])%39, 1+int(data[1])%6
		opts := Options{Shards: 1 + int(data[2])%4, MaxCells: 1 + int(data[3]>>4)}
		if data[2]&0x80 != 0 {
			opts.Strategy = repairing
		}
		if data[3]&1 != 0 {
			opts.Capacities = make(core.Capacities, ns)
			for k := range opts.Capacities {
				opts.Capacities[k] = 1 + (int(data[3]>>1)+k)%8
			}
		}
		cs, err := latency.GenerateCoords(latency.DefaultConfig(nc+ns), int64(data[4]))
		if err != nil {
			t.Fatal(err)
		}
		opts.Servers, opts.Clients = cs[:ns], cs[ns:]
		p, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		checkPublished(t, p, "new")
		ctx := context.Background()
		ops := data[5:]
		if len(ops) > 128 {
			ops = ops[:128]
		}
		for i := 0; i+1 < len(ops); i += 2 {
			kind, arg := ops[i]%10, int(ops[i+1])
			c, s := arg%nc, arg%ns
			switch kind {
			case 0, 1:
				p.Join(ctx, c)
			case 2:
				p.Leave(ctx, c)
			case 3:
				p.Migrate(ctx, c, -1)
			case 4:
				p.Migrate(ctx, c, (arg/nc)%ns)
			case 5:
				p.KillServer(ctx, s)
			case 6:
				p.RestartServer(ctx, s)
			case 7:
				p.RepairShard(ctx, arg%p.NumShards(), float64(i))
			case 8:
				if _, _, err := p.Resolve(ctx, "Greedy", int64(arg)); err != nil {
					// A shard that fails to re-solve returns before the
					// publish, leaving the moves of the shards before it
					// for the next epoch; publish them here.
					p.mu.Lock()
					p.publishLocked(ctx)
					p.mu.Unlock()
				}
			case 9:
				// Move one node by a whole number of ms along X and Y.
				n := arg % (nc + ns)
				cs = slices.Clone(cs)
				cs[n].X += float64(arg%7 - 3)
				cs[n].Y += float64(arg%5 - 2)
				if err := p.ApplyDrift(ctx, cs); err != nil {
					t.Fatal(err)
				}
			}
			checkPublished(t, p, fmt.Sprintf("op %d (kind %d, arg %d)", i/2, kind, arg))
		}
	})
}
