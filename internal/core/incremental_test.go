package core_test

// Differential battery for the incremental D engine: randomized
// join/leave/migrate sequences where every step's D must be
// bit-identical to the scalar eccentricity reference, and must agree
// with the client-pair walk MaxPathNaive at the repo's 1e-9
// cross-form tolerance (the two decompositions associate the witness
// sum differently — see differential_test.go). Per-server
// eccentricities and loads are also checked bit-for-bit against
// Instance.Eccentricities and Instance.Loads, because the shard plane
// reconciles the global D from exactly those eccentricities.

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"diacap/internal/core"
	"diacap/internal/latency"
)

// checkEvaluatorState asserts that ev's D, eccentricities and loads
// equal the from-scratch references over its assignment.
func checkEvaluatorState(t *testing.T, label string, in *core.Instance, ev *core.Evaluator) {
	t.Helper()
	a := ev.Assignment()
	checkBitsEqual(t, label+": D vs ecc reference", ev.D(), eccPathReference(in, a))
	ecc, loads := in.Eccentricities(a), in.Loads(a)
	for s := 0; s < in.NumServers(); s++ {
		checkBitsEqual(t, label+": eccentricity", ev.Eccentricity(s), ecc[s])
		if ev.Load(s) != loads[s] {
			t.Fatalf("%s: load[%d] = %d, reference %d", label, s, ev.Load(s), loads[s])
		}
	}
}

// incCheck drives one randomized op sequence through an evaluator,
// checking every op's D against eccPathReference and every join's
// PeekJoin against the D the join returns. refEvery > 0 additionally
// checks eccentricities, loads and MaxPathNaive every refEvery ops.
func incCheck(t *testing.T, in *core.Instance, seed int64, ops, refEvery int) {
	t.Helper()
	inc, err := in.NewEvaluator(core.NewAssignment(in.NumClients()))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	var active, inactive []int
	for c := 0; c < in.NumClients(); c++ {
		inactive = append(inactive, c)
	}
	for op := 0; op < ops; op++ {
		var d float64
		switch k := rng.Intn(3); {
		case k == 0 && len(inactive) > 0: // join
			i := rng.Intn(len(inactive))
			c := inactive[i]
			s := rng.Intn(in.NumServers())
			peek := inc.PeekJoin(c, s)
			d, err = inc.ApplyJoin(c, s)
			if err != nil {
				t.Fatalf("op %d: join(%d,%d): %v", op, c, s, err)
			}
			checkBitsEqual(t, "PeekJoin vs join", peek, d)
			inactive[i] = inactive[len(inactive)-1]
			inactive = inactive[:len(inactive)-1]
			active = append(active, c)
		case k == 1 && len(active) > 0: // leave
			i := rng.Intn(len(active))
			c := active[i]
			d, err = inc.ApplyLeave(c)
			if err != nil {
				t.Fatalf("op %d: leave(%d): %v", op, c, err)
			}
			active[i] = active[len(active)-1]
			active = active[:len(active)-1]
			inactive = append(inactive, c)
		case len(active) > 0: // migrate (sometimes a no-op on purpose)
			c := active[rng.Intn(len(active))]
			s := rng.Intn(in.NumServers())
			d, err = inc.ApplyMove(c, s)
			if err != nil {
				t.Fatalf("op %d: migrate(%d,%d): %v", op, c, s, err)
			}
		default:
			continue
		}
		a := inc.Assignment()
		checkBitsEqual(t, "incremental D vs ecc reference", d, eccPathReference(in, a))
		if refEvery > 0 && op%refEvery == 0 {
			checkEvaluatorState(t, "incremental state", in, inc)
			if ref := in.MaxPathNaive(a); math.Abs(d-ref) > 1e-9 {
				t.Fatalf("op %d: incremental D %v vs MaxPathNaive %v: |diff| %g > 1e-9",
					op, d, ref, math.Abs(d-ref))
			}
		}
	}
	if st := inc.Stats(); st.Recomputes != 0 || st.EccScans != 0 {
		t.Fatalf("evaluator reported O(world) work: %+v", inc.Stats())
	}
}

// TestIncrementalDifferential is the acceptance battery: over 10k
// randomized join/leave/migrate ops on synthetic instances (full
// reference checks on every op), plus a Meridian-scale sequence.
func TestIncrementalDifferential(t *testing.T) {
	for _, tc := range []struct {
		nodes, servers int
		seed           int64
		ops, refEvery  int
	}{
		{nodes: 60, servers: 6, seed: 1, ops: 4000, refEvery: 1},
		{nodes: 120, servers: 12, seed: 2, ops: 4000, refEvery: 1},
		{nodes: 200, servers: 25, seed: 3, ops: 4000, refEvery: 5},
	} {
		m, err := latency.SyntheticInternet(latency.DefaultConfig(tc.nodes), tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		in := diffInstance(t, m, tc.servers, tc.seed)
		incCheck(t, in, tc.seed+100, tc.ops, tc.refEvery)
	}
}

// TestIncrementalDifferentialMeridian exercises the engine at serving
// scale (1796 nodes, 80 servers) where the heap and witness-cache
// machinery actually matters.
func TestIncrementalDifferentialMeridian(t *testing.T) {
	if testing.Short() {
		t.Skip("meridian-scale differential in -short mode")
	}
	in := diffInstance(t, latency.MeridianLike(1), 80, 7)
	incCheck(t, in, 11, 3000, 50)
}

// TestIncrementalFromWarmState builds the engine over a populated
// partial assignment and checks it through random moves. An evaluator
// rebuilt from the warm state must then agree with the running one,
// move for move.
func TestIncrementalFromWarmState(t *testing.T) {
	m := latency.ScaledLike(150, 9)
	in := diffInstance(t, m, 10, 9)
	ev, err := in.NewEvaluator(diffAssignment(in, 10, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	checkEvaluatorState(t, "built from a populated assignment", in, ev)
	rng := rand.New(rand.NewSource(12))
	move := func() (int, int) {
		c := rng.Intn(in.NumClients())
		s := rng.Intn(in.NumServers() + 1)
		if s == in.NumServers() {
			s = core.Unassigned
		}
		return c, s
	}
	for i := 0; i < 200; i++ {
		c, s := move()
		checkBitsEqual(t, "warm-up move", ev.Move(c, s), eccPathReference(in, ev.Assignment()))
	}
	rebuilt, err := in.NewEvaluator(ev.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	checkEvaluatorState(t, "rebuilt from the warm state", in, rebuilt)
	checkBitsEqual(t, "rebuilt D", rebuilt.D(), ev.D())
	for i := 0; i < 2000; i++ {
		c, s := move()
		checkBitsEqual(t, "post-rebuild move", rebuilt.Move(c, s), ev.Move(c, s))
	}
	checkEvaluatorState(t, "after the moves", in, rebuilt)
	for s := 0; s < in.NumServers(); s++ {
		checkBitsEqual(t, "post-rebuild eccentricity", rebuilt.Eccentricity(s), ev.Eccentricity(s))
	}
}

// TestIncrementalPeekJoin checks PeekJoin for random unassigned clients
// and every server: the peek equals, bit for bit, the D that Move then
// returns, and it changes no state (D, the assignment, any eccentricity
// or the work counters). Half the servers start empty, so the peeks
// cover an unused target and a used one on each side of the O(1) test
// (d(c,k) ≤ ecc(k) or not). Each instance opens with peeks into an
// empty evaluator, where the client's path to itself is the answer.
func TestIncrementalPeekJoin(t *testing.T) {
	type peekCase struct {
		in     *core.Instance
		rounds int
	}
	var cases []peekCase
	for _, tc := range []struct {
		nodes, servers int
		seed           int64
	}{{60, 6, 1}, {120, 12, 2}, {200, 25, 3}} {
		m, err := latency.SyntheticInternet(latency.DefaultConfig(tc.nodes), tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, peekCase{diffInstance(t, m, tc.servers, tc.seed), 300})
	}
	if !testing.Short() {
		cases = append(cases, peekCase{diffInstance(t, latency.MeridianLike(1), 80, 7), 40})
	}
	for _, tc := range cases {
		peekJoinCheck(t, tc.in, tc.rounds)
	}
}

// peekJoinCheck runs TestIncrementalPeekJoin's checks on one instance.
func peekJoinCheck(t *testing.T, in *core.Instance, rounds int) {
	t.Helper()
	nc, ns := in.NumClients(), in.NumServers()
	// cover counts peeks at an unused k, at a used k with
	// d(c,k) ≤ ecc(k), and at a used k with d(c,k) > ecc(k).
	var cover [3]int
	ecc := make([]float64, ns)
	peekAll := func(ev *core.Evaluator, c int) {
		t.Helper()
		for k := 0; k < ns; k++ {
			st, d, a := ev.Stats(), ev.D(), ev.Assignment()
			for s := range ecc {
				ecc[s] = ev.Eccentricity(s)
			}
			peek := ev.PeekJoin(c, k)
			if ev.Stats() != st {
				t.Fatalf("PeekJoin(%d,%d) changed the stats: %+v -> %+v", c, k, st, ev.Stats())
			}
			checkBitsEqual(t, "D after peek", ev.D(), d)
			for s := range ecc {
				checkBitsEqual(t, "eccentricity after peek", ev.Eccentricity(s), ecc[s])
			}
			for i := range a {
				if ev.ServerOf(i) != a[i] {
					t.Fatalf("PeekJoin(%d,%d) moved client %d", c, k, i)
				}
			}
			switch {
			case ecc[k] < 0:
				cover[0]++
			case in.ClientServerDist(c, k) <= ecc[k]:
				cover[1]++
			default:
				cover[2]++
			}
			checkBitsEqual(t, "PeekJoin vs Move", peek, ev.Move(c, k))
			ev.Move(c, core.Unassigned)
		}
	}

	empty, err := in.NewEvaluator(core.NewAssignment(nc))
	if err != nil {
		t.Fatal(err)
	}
	peekAll(empty, 0)

	rng := rand.New(rand.NewSource(int64(nc)))
	half := (ns + 1) / 2
	a := core.NewAssignment(nc)
	for i := range a {
		if rng.Float64() < 0.6 {
			a[i] = rng.Intn(half)
		}
	}
	ev, err := in.NewEvaluator(a)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		c := rng.Intn(nc)
		ev.Move(c, core.Unassigned)
		peekAll(ev, c)
		// Put the client back mostly on the first half of the servers,
		// so the other half stays mostly empty.
		switch p := rng.Float64(); {
		case p < 0.6:
			ev.Move(c, rng.Intn(half))
		case p < 0.65:
			ev.Move(c, rng.Intn(ns))
		}
	}
	checkEvaluatorState(t, "after the peeks", in, ev)
	for i, label := range []string{"an unused k", "a used k with d(c,k) <= ecc(k)", "a used k with d(c,k) > ecc(k)"} {
		if cover[i] == 0 {
			t.Fatalf("%d clients/%d servers: no peek covered %s", nc, ns, label)
		}
	}
}

// TestApplyOpErrors pins the typed errors of the delta API.
func TestApplyOpErrors(t *testing.T) {
	m := latency.ScaledLike(40, 1)
	in := diffInstance(t, m, 4, 1)
	ev, err := in.NewEvaluator(core.NewAssignment(in.NumClients()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.ApplyLeave(0); !errors.Is(err, core.ErrNotAssigned) {
		t.Fatalf("leave of inactive client: got %v, want ErrNotAssigned", err)
	}
	if _, err := ev.ApplyMove(0, 1); !errors.Is(err, core.ErrNotAssigned) {
		t.Fatalf("migrate of inactive client: got %v, want ErrNotAssigned", err)
	}
	if _, err := ev.ApplyJoin(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.ApplyJoin(0, 1); !errors.Is(err, core.ErrAlreadyAssigned) {
		t.Fatalf("double join: got %v, want ErrAlreadyAssigned", err)
	}
	if _, err := ev.ApplyJoin(-1, 0); err == nil {
		t.Fatal("out-of-range client accepted")
	}
	if _, err := ev.ApplyJoin(1, in.NumServers()); err == nil {
		t.Fatal("out-of-range server accepted")
	}
	if _, err := ev.ApplyJoin(1, core.Unassigned); err == nil {
		t.Fatal("join to Unassigned accepted")
	}
	if _, err := ev.ApplyMove(0, core.Unassigned); err == nil {
		t.Fatal("migrate to Unassigned accepted")
	}
}

// TestEvaluatorNoOpMoveDoesNoWork is the regression test for the no-op
// fast path: re-assigning a client to its current server must perform
// no repair work at all.
func TestEvaluatorNoOpMoveDoesNoWork(t *testing.T) {
	m := latency.ScaledLike(80, 2)
	in := diffInstance(t, m, 6, 2)
	ev, err := in.NewEvaluator(diffAssignment(in, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	before := ev.D()
	ev.ResetStats()
	for c := 0; c < in.NumClients(); c++ {
		checkBitsEqual(t, "no-op Move return", ev.Move(c, ev.ServerOf(c)), before)
	}
	if st := ev.Stats(); st != (core.EvaluatorStats{}) {
		t.Fatalf("no-op moves performed repair work: %+v", st)
	}
}

// FuzzIncrementalOps interprets fuzz bytes as an op tape, checks each
// op's D against eccPathReference, and checks a PeekJoin before every
// op that places an unassigned client.
func FuzzIncrementalOps(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 9, 4, 200, 33, 7})
	f.Add(int64(3), []byte{255, 254, 253, 0, 0, 0, 1, 1, 1, 77})
	m := latency.ScaledLike(64, 5)
	f.Fuzz(func(t *testing.T, seed int64, tape []byte) {
		if len(tape) > 512 {
			tape = tape[:512]
		}
		in := diffInstance(t, m, 6, seed%16+1)
		ev, err := in.NewEvaluator(core.NewAssignment(in.NumClients()))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(tape); i += 2 {
			c := int(tape[i]) % in.NumClients()
			s := int(tape[i+1])%(in.NumServers()+1) - 1 // -1 = Unassigned
			placing := ev.ServerOf(c) == core.Unassigned && s != core.Unassigned
			var peek float64
			if placing {
				peek = ev.PeekJoin(c, s)
			}
			got := ev.Move(c, s)
			if want := eccPathReference(in, ev.Assignment()); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("op %d: move(%d,%d): D %v != ecc reference %v", i/2, c, s, got, want)
			}
			if placing && math.Float64bits(peek) != math.Float64bits(got) {
				t.Fatalf("op %d: PeekJoin(%d,%d) %v != Move %v", i/2, c, s, peek, got)
			}
		}
		checkEvaluatorState(t, "final state", in, ev)
	})
}
