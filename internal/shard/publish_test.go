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
// publishes: the assignment and loads by walking every client through
// the evaluator, and D by a fresh pair scan over
// Instance.Eccentricities. CertifiedD is that D.
func referenceSnapshot(p *Plane) *Snapshot {
	snap := &Snapshot{
		Epoch:      p.epoch,
		Assignment: make([]int, len(p.opts.Clients)),
		Loads:      make([]int, len(p.opts.Servers)),
		Alive:      slices.Clone(p.alive),
	}
	for c := range snap.Assignment {
		s := p.ev.ServerOf(c)
		snap.Assignment[c] = s
		if s == core.Unassigned {
			continue
		}
		snap.Loads[s]++
		snap.Active++
	}
	in := p.ev.Instance()
	snap.D = perfkit.MaxPathEcc(in.FlatServerServer(), in.Eccentricities(snap.Assignment))
	snap.CertifiedD = snap.D
	return snap
}

// snapshotDiff describes the first difference between two snapshots,
// comparing every float by its bits, or returns "".
func snapshotDiff(got, want *Snapshot) string {
	bits := math.Float64bits
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
	}
	return ""
}

// checkPublished fails t unless the published snapshot is bit-equal to
// the from-scratch reference of the plane's current state.
func checkPublished(t testing.TB, p *Plane, label string) {
	t.Helper()
	if d := snapshotDiff(p.Current(), referenceSnapshot(p)); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

// checkWrite checks the write rule after one op that returned err,
// given the snapshot published before it. The op published at most one
// epoch: none if it was refused (an error other than an
// *EvacuationError), one if it detached clients, and an op that
// published none left the snapshot pointer alone. Either way the
// published state must be bit-equal to the from-scratch reference (so
// an op that published nothing left the evaluator alone), with no
// client on a dead server, no load over its capacity, and CertifiedD
// bit-equal to D.
func checkWrite(t testing.TB, p *Plane, label string, before *Snapshot, err error) {
	t.Helper()
	after := p.Current()
	var evac *EvacuationError
	refused := err != nil && !errors.As(err, &evac)
	switch n := after.Epoch - before.Epoch; {
	case n > 1:
		t.Fatalf("%s: published epochs %d to %d", label, before.Epoch+1, after.Epoch)
	case n == 1 && refused:
		t.Fatalf("%s: refused (%v) but published epoch %d", label, err, after.Epoch)
	case n == 0 && evac != nil:
		t.Fatalf("%s: detached clients without publishing: %v", label, err)
	case n == 0 && after != before:
		t.Fatalf("%s: swapped the snapshot without a new epoch", label)
	}
	checkPublished(t, p, label)
	if err := dynamic.CheckServers(func(k int) int { return after.Loads[k] }, after.Alive, p.opts.Capacities); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if math.Float64bits(after.CertifiedD) != math.Float64bits(after.D) {
		t.Fatalf("%s: CertifiedD %v, want D %v", label, after.CertifiedD, after.D)
	}
}

// repairing is the differential tapes' strategy: GreedyJoin placements
// plus repair moves, so Repair mutates the evaluator directly.
func repairing() dynamic.Strategy { return dynamic.NewGreedyJoinRepair(nil, 2) }

// TestPlanePublishDifferential replays six seeded tapes of every plane
// write, three capacitated and three not, and checks the write rule
// after every operation (checkWrite): at most one epoch, none for a
// refusal, and a published state bit-equal to the from-scratch
// reference. The subtests keep the names of the shard counts the
// tapes once ran at; the count is now only the tape's seed (plus 100
// when capped). Each tape mixes joins, leaves, explicit, strategy and
// no-op migrates, repairs, kills, restarts and refused writes; then
// fills the plane and kills servers until one evacuation detaches
// clients (capacitated) or one server is left, restarts them, rejoins
// the detached clients, drifts the coordinates and runs more of the
// mix.
func TestPlanePublishDifferential(t *testing.T) {
	for _, seed := range []int64{1, 4, 16} {
		for _, capped := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/capped=%t", seed, capped), func(t *testing.T) {
				publishTape(t, seed, capped)
			})
		}
	}
}

func publishTape(t *testing.T, seed int64, capped bool) {
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
	p, err := New(Options{Servers: cs[:ns], Clients: cs[ns:], Capacities: caps, Strategy: repairing()})
	if err != nil {
		t.Fatal(err)
	}
	checkPublished(t, p, "new")
	ctx := context.Background()
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
	// evacuation returns a kill's *EvacuationError, or nil; any other
	// error fails t, and so does a detach on an uncapacitated plane.
	evacuation := func(label string, err error) *EvacuationError {
		t.Helper()
		var evac *EvacuationError
		if err != nil && (caps == nil || !errors.As(err, &evac)) {
			t.Fatalf("%s: %v", label, err)
		}
		return evac
	}
	// step runs one random write, names it and returns its error. Many
	// writes are refused (no room, a dead target, a capped migrate, an
	// inactive client); checkWrite verifies that a refusal published
	// nothing.
	step := func(i int) (string, error) {
		switch k := rng.Intn(100); {
		case k < 35:
			if c := pick(false); c >= 0 {
				_, err := p.Join(ctx, c)
				return fmt.Sprintf("join %d", c), err
			}
		case k < 50:
			if c := pick(true); c >= 0 {
				_, err := p.Leave(ctx, c)
				return fmt.Sprintf("leave %d", c), err
			}
		case k < 60:
			if c := pick(true); c >= 0 {
				s := rng.Intn(ns)
				_, err := p.Migrate(ctx, c, s)
				return fmt.Sprintf("migrate %d to %d", c, s), err
			}
		case k < 70:
			if c := pick(true); c >= 0 {
				_, err := p.Migrate(ctx, c, -1)
				return fmt.Sprintf("strategy migrate %d", c), err
			}
		case k < 74:
			if c := pick(true); c >= 0 {
				_, err := p.Migrate(ctx, c, p.Current().Assignment[c])
				return fmt.Sprintf("no-op migrate %d", c), err
			}
		case k < 84:
			p.Repair(ctx, float64(i))
			return "repair", nil
		case k < 88:
			if s := rng.Intn(ns); liveCount() > 2 {
				label := fmt.Sprintf("kill %d", s)
				_, _, err := p.KillServer(ctx, s)
				evacuation(label, err)
				return label, err
			}
		case k < 94:
			s := rng.Intn(ns)
			if _, err := p.RestartServer(ctx, s); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("restart %d", s), nil
		default:
			c := pick(false)
			_, leaveErr := p.Leave(ctx, c)
			_, joinErr := p.Join(ctx, nc)
			bad := slices.Clone(cs)
			bad[rng.Intn(len(bad))].H = -1
			driftErr := p.ApplyDrift(ctx, bad)
			if leaveErr == nil || !errors.Is(joinErr, ErrUnknownClient) || driftErr == nil {
				t.Fatalf("leave of inactive client %d: %v; join of an unknown client: %v; drift to a negative height: %v",
					c, leaveErr, joinErr, driftErr)
			}
			return fmt.Sprintf("refused writes on %d", c), errors.Join(leaveErr, joinErr, driftErr)
		}
		return "skip", nil
	}
	// write runs op, checks the write rule after it and returns its
	// error.
	write := func(label string, op func() error) error {
		t.Helper()
		before := p.Current()
		err := op()
		checkWrite(t, p, label, before, err)
		return err
	}
	for i := range 500 {
		before := p.Current()
		what, err := step(i)
		checkWrite(t, p, fmt.Sprintf("op %d (%s)", i, what), before, err)
	}

	restartAll := func() {
		for k := range ns {
			label := fmt.Sprintf("restart %d", k)
			if err := write(label, func() error { _, err := p.RestartServer(ctx, k); return err }); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}
	join := func(label string, c int) {
		if err := write(label, func() error { _, err := p.Join(ctx, c); return err }); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	restartAll()
	for c := range nc {
		if p.Current().Assignment[c] == core.Unassigned {
			join(fmt.Sprintf("fill join %d", c), c)
		}
	}
	var evac *EvacuationError
	for k := 0; k < ns-1 && evac == nil; k++ {
		label := fmt.Sprintf("kill %d", k)
		load := p.Current().Loads[k]
		evac = evacuation(label, write(label, func() error { _, _, err := p.KillServer(ctx, k); return err }))
		if evac == nil {
			continue
		}
		if active := p.Current().Active; evac.Server != k || len(evac.Detached) == 0 || len(evac.Detached) > load ||
			!slices.IsSorted(evac.Detached) || active != nc-len(evac.Detached) {
			t.Fatalf("%s: %v, with %d of %d clients active after it", label, evac, active, nc)
		}
	}
	if capped != (evac != nil) {
		t.Fatalf("capacitated %t, but an evacuation detached clients: %v", capped, evac)
	}
	restartAll()
	if evac != nil {
		for _, c := range evac.Detached {
			join(fmt.Sprintf("rejoin of detached client %d", c), c)
		}
	}

	moved := slices.Clone(cs)
	for i := range moved {
		moved[i].X += 10 * rng.NormFloat64()
		moved[i].Y += 10 * rng.NormFloat64()
	}
	if err := write("drift", func() error { return p.ApplyDrift(ctx, moved) }); err != nil {
		t.Fatal(err)
	}
	for i := range 150 {
		before := p.Current()
		what, err := step(500 + i)
		checkWrite(t, p, fmt.Sprintf("post-drift op %d (%s)", i, what), before, err)
	}
}

// TestPlaneDriftRescansPairs pins that a drift re-derives D from the
// new server table: a drift that moves server 1 and its one client by
// the same exact offset leaves every eccentricity's bits unchanged but
// moves the server-server distance, and so D.
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
	ecc := []float64{p.ev.Eccentricity(0), p.ev.Eccentricity(1)}
	moved := []latency.Coord{servers[0], {X: 200}, clients[0], {X: 204}}
	if err := p.ApplyDrift(ctx, moved); err != nil {
		t.Fatal(err)
	}
	checkPublished(t, p, "drift")
	after := p.Current()
	for k, v := range ecc {
		if got := p.ev.Eccentricity(k); math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("drift moved server %d's eccentricity %v → %v; the case needs it fixed", k, v, got)
		}
	}
	if after.D == before.D {
		t.Fatalf("drift left D at %v", after.D)
	}
}

// FuzzPlaneOps decodes a short op tape over a small plane and checks
// the write rule after every op (checkWrite). Five header bytes shape
// the plane: clients (2–40), servers (1–6), a repairing strategy (the
// byte's high bit; its low bits, once a shard count, are unused),
// capacities (1–8 per server; the byte's high four bits are unused),
// and the coordinate seed. Each further byte pair is
// one operation and its argument; many are refused, and a refused
// write must publish nothing.
func FuzzPlaneOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		nc, ns := 2+int(data[0])%39, 1+int(data[1])%6
		var opts Options
		if data[2]&0x80 != 0 {
			opts.Strategy = repairing()
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
			before := p.Current()
			switch kind {
			case 0, 1:
				_, err = p.Join(ctx, c)
			case 2:
				_, err = p.Leave(ctx, c)
			case 3:
				_, err = p.Migrate(ctx, c, -1)
			case 4:
				_, err = p.Migrate(ctx, c, (arg/nc)%ns)
			case 5:
				_, _, err = p.KillServer(ctx, s)
			case 6:
				_, err = p.RestartServer(ctx, s)
			case 7:
				p.Repair(ctx, float64(i))
				err = nil
			case 8:
				// A migrate to the client's own server: a no-op that
				// publishes, or a refusal for an inactive client.
				_, err = p.Migrate(ctx, c, before.Assignment[c])
			case 9:
				// Move one node by a whole number of ms along X and Y.
				n := arg % (nc + ns)
				cs = slices.Clone(cs)
				cs[n].X += float64(arg%7 - 3)
				cs[n].Y += float64(arg%5 - 2)
				if err = p.ApplyDrift(ctx, cs); err != nil {
					t.Fatal(err)
				}
			}
			checkWrite(t, p, fmt.Sprintf("op %d (kind %d, arg %d)", i/2, kind, arg), before, err)
		}
	})
}
