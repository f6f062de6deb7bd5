package assign

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"diacap/internal/core"
	"diacap/internal/graph"
	"diacap/internal/latency"
	"diacap/internal/perfkit"
)

// matrixFromGraph converts a connected graph's shortest-path closure into
// a latency matrix.
func matrixFromGraph(t testing.TB, g *graph.Graph) latency.Matrix {
	t.Helper()
	if !g.Connected() {
		t.Fatal("test graph must be connected")
	}
	ap := g.AllPairs()
	m := latency.NewMatrix(g.Len())
	for i := range ap {
		copy(m[i], ap[i])
	}
	return m
}

// fig4Instance builds the paper's Fig. 4 example with a = 10, ε = 1:
// clients c1, c2 (nodes 0, 1), servers s, s1, s2 (nodes 2, 3, 4).
// Nearest-Server yields D = 6a − 4ε = 56; the optimum is 2a = 20.
func fig4Instance(t testing.TB) *core.Instance {
	t.Helper()
	g := graph.New(5)
	g.MustAddEdge(0, 2, 10) // c1 - s
	g.MustAddEdge(1, 2, 10) // c2 - s
	g.MustAddEdge(0, 3, 9)  // c1 - s1 (a − ε)
	g.MustAddEdge(1, 4, 9)  // c2 - s2 (a − ε)
	in, err := core.NewInstanceTrusted(matrixFromGraph(t, g), []int{2, 3, 4}, []int{0, 1})
	if err != nil {
		t.Fatalf("NewInstanceTrusted: %v", err)
	}
	return in
}

// fig5Instance builds the paper's Fig. 5 example:
// clients c1, c2 (nodes 0, 1), servers s1, s2 (nodes 2, 3) with
// d(c1,s1)=5, d(c2,s1)=4, d(c2,s2)=3, d(s1,s2)=4, d(c1,c2)=7.
func fig5Instance(t testing.TB) *core.Instance {
	t.Helper()
	g := graph.New(4)
	g.MustAddEdge(0, 2, 5) // c1 - s1
	g.MustAddEdge(1, 2, 4) // c2 - s1
	g.MustAddEdge(1, 3, 3) // c2 - s2
	g.MustAddEdge(2, 3, 4) // s1 - s2
	g.MustAddEdge(0, 1, 7) // c1 - c2
	in, err := core.NewInstanceTrusted(matrixFromGraph(t, g), []int{2, 3}, []int{0, 1})
	if err != nil {
		t.Fatalf("NewInstanceTrusted: %v", err)
	}
	return in
}

// randomInstance builds a random synthetic instance for property tests.
func randomInstance(seed int64, maxNodes, minServers, maxServers int) *core.Instance {
	rng := rand.New(rand.NewSource(seed))
	n := minServers + 4 + rng.Intn(maxNodes-minServers-3)
	m := latency.ScaledLike(n, seed)
	ns := minServers + rng.Intn(maxServers-minServers+1)
	if ns >= n {
		ns = n - 1
	}
	perm := rng.Perm(n)
	in, err := core.NewInstanceTrusted(m, perm[:ns], perm[ns:])
	if err != nil {
		panic(err)
	}
	return in
}

func TestFig4ApproxRatioTight(t *testing.T) {
	in := fig4Instance(t)

	nsA, err := NearestServer{}.Assign(in, nil)
	if err != nil {
		t.Fatalf("NearestServer: %v", err)
	}
	if got := in.MaxInteractionPath(nsA); got != 56 {
		t.Fatalf("Nearest-Server D = %v, want 6a−4ε = 56", got)
	}
	// c1 must be on s1 (index 1), c2 on s2 (index 2).
	if nsA[0] != 1 || nsA[1] != 2 {
		t.Fatalf("Nearest-Server assignment = %v, want [1 2]", nsA)
	}

	_, opt, err := BruteForce{}.Solve(in, nil)
	if err != nil {
		t.Fatalf("BruteForce: %v", err)
	}
	if opt != 20 {
		t.Fatalf("optimal D = %v, want 2a = 20", opt)
	}
	// Ratio (6a−4ε)/2a approaches 3 as ε → 0; with a=10, ε=1 it is 2.8.
	if ratio := 56.0 / opt; math.Abs(ratio-2.8) > 1e-9 {
		t.Fatalf("ratio = %v, want 2.8", ratio)
	}

	// Greedy and Distributed-Greedy find the optimum here.
	for _, alg := range []Algorithm{Greedy{}, NewDistributedGreedy()} {
		a, err := alg.Assign(in, nil)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if got := in.MaxInteractionPath(a); got != 20 {
			t.Fatalf("%s D = %v, want 20", alg.Name(), got)
		}
	}

	// LFB equals Nearest-Server on this instance (the tightness example
	// applies to it as well).
	lfbA, err := LongestFirstBatch{}.Assign(in, nil)
	if err != nil {
		t.Fatalf("LFB: %v", err)
	}
	if got := in.MaxInteractionPath(lfbA); got != 56 {
		t.Fatalf("LFB D = %v, want 56", got)
	}
}

func TestFig5LFBBeatsNS(t *testing.T) {
	in := fig5Instance(t)

	nsA, err := NearestServer{}.Assign(in, nil)
	if err != nil {
		t.Fatalf("NearestServer: %v", err)
	}
	if got := in.MaxInteractionPath(nsA); got != 12 {
		t.Fatalf("Nearest-Server D = %v, want 12", got)
	}

	// LFB assigns both clients to s1. The paper's prose reports D = 9 by
	// considering only the c1–c2 path; under Definition 1 (which includes
	// a client's interaction path to itself, 2·d(c1,s1) = 10) D = 10.
	// Either way LFB strictly beats Nearest-Server.
	lfbA, err := LongestFirstBatch{}.Assign(in, nil)
	if err != nil {
		t.Fatalf("LFB: %v", err)
	}
	if lfbA[0] != 0 || lfbA[1] != 0 {
		t.Fatalf("LFB assignment = %v, want both on s1", lfbA)
	}
	got := in.MaxInteractionPath(lfbA)
	if got != 10 {
		t.Fatalf("LFB D = %v, want 10", got)
	}
	if got >= in.MaxInteractionPath(nsA) {
		t.Fatal("LFB should beat Nearest-Server on Fig. 5")
	}
}

func TestAllProduceValidAssignments(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed, 40, 2, 6)
		for _, alg := range All() {
			a, err := alg.Assign(in, nil)
			if err != nil {
				return false
			}
			if in.Validate(a) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAllRespectLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed, 35, 2, 5)
		lb := in.LowerBound()
		for _, alg := range All() {
			a, err := alg.Assign(in, nil)
			if err != nil {
				return false
			}
			if in.MaxInteractionPath(a) < lb-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLFBNeverWorseThanNS(t *testing.T) {
	// Section IV-B: the maximum interaction path length of LFB cannot
	// exceed Nearest-Server's, on any latency data (the argument does not
	// need the triangle inequality).
	f := func(seed int64) bool {
		in := randomInstance(seed, 60, 2, 8)
		nsA, err1 := NearestServer{}.Assign(in, nil)
		lfbA, err2 := LongestFirstBatch{}.Assign(in, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		return in.MaxInteractionPath(lfbA) <= in.MaxInteractionPath(nsA)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNSThreeApproxOnMetricData(t *testing.T) {
	// Theorem 2: under shortest-path routing (triangle inequality),
	// Nearest-Server is within 3× of the optimum.
	cfg := latency.DefaultConfig(12)
	cfg.DetourFraction = 0
	cfg.NoiseSigma = 0 // noise can break the triangle inequality
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 12; trial++ {
		m, err := latency.SyntheticInternet(cfg, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(12)
		ns := 2 + rng.Intn(2)
		in, err := core.NewInstanceTrusted(m, perm[:ns], perm[ns:ns+7])
		if err != nil {
			t.Fatal(err)
		}
		nsA, err := NearestServer{}.Assign(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, opt, err := BruteForce{}.Solve(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := in.MaxInteractionPath(nsA); got > 3*opt+1e-9 {
			t.Fatalf("trial %d: NS D = %v > 3×opt = %v", trial, got, 3*opt)
		}
	}
}

func TestHeuristicsVsOptimalSmall(t *testing.T) {
	// On small instances the two greedy algorithms should stay close to
	// the brute-force optimum (the paper reports near-optimal
	// interactivity); we assert a loose 1.5× envelope and that every
	// heuristic is at least the optimum.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		n := 9 + rng.Intn(4)
		m := latency.ScaledLike(n, int64(trial+100))
		perm := rng.Perm(n)
		in, err := core.NewInstanceTrusted(m, perm[:3], perm[3:])
		if err != nil {
			t.Fatal(err)
		}
		_, opt, err := BruteForce{}.Solve(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range All() {
			a, err := alg.Assign(in, nil)
			if err != nil {
				t.Fatalf("%s: %v", alg.Name(), err)
			}
			d := in.MaxInteractionPath(a)
			if d < opt-1e-9 {
				t.Fatalf("trial %d: %s D = %v below optimum %v", trial, alg.Name(), d, opt)
			}
		}
	}
}

func TestCapacitatedRespectCapacities(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed, 40, 3, 6)
		nc, ns := in.NumClients(), in.NumServers()
		// Tight-ish capacity: 1.3× the average load, at least 1.
		c := nc/ns + nc/(3*ns) + 1
		caps := core.UniformCapacities(ns, c)
		if in.ValidateCapacities(caps) != nil {
			caps = core.UniformCapacities(ns, nc) // fallback: ample
		}
		for _, alg := range All() {
			a, err := alg.Assign(in, caps)
			if err != nil {
				return false
			}
			if in.Validate(a) != nil || in.CheckCapacities(a, caps) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityExactFit(t *testing.T) {
	// Total capacity exactly equal to the client count must still succeed.
	in := randomInstance(3, 30, 4, 4)
	nc, ns := in.NumClients(), in.NumServers()
	base := nc / ns
	caps := core.UniformCapacities(ns, base)
	for k := 0; k < nc%ns; k++ {
		caps[k]++
	}
	for _, alg := range All() {
		a, err := alg.Assign(in, caps)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if err := in.CheckCapacities(a, caps); err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
	}
}

func TestCapacityInfeasibleRejected(t *testing.T) {
	in := randomInstance(4, 25, 3, 3)
	caps := core.UniformCapacities(in.NumServers(), (in.NumClients()/in.NumServers())-1)
	for _, alg := range All() {
		if _, err := alg.Assign(in, caps); err == nil {
			t.Fatalf("%s: should reject infeasible capacities", alg.Name())
		}
	}
	if _, err := (BruteForce{}).Assign(in, caps); err == nil {
		t.Fatal("BruteForce should reject infeasible capacities")
	}
}

func TestAmpleCapacityMatchesUncapacitated(t *testing.T) {
	// With capacity ≥ |C| on every server the capacitated variants must
	// reproduce the uncapacitated assignments exactly.
	f := func(seed int64) bool {
		in := randomInstance(seed, 35, 2, 5)
		caps := core.UniformCapacities(in.NumServers(), in.NumClients())
		for _, alg := range All() {
			free, err1 := alg.Assign(in, nil)
			capped, err2 := alg.Assign(in, caps)
			if err1 != nil || err2 != nil {
				return false
			}
			for i := range free {
				if free[i] != capped[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministic(t *testing.T) {
	in := randomInstance(9, 50, 4, 6)
	for _, alg := range All() {
		a1, err1 := alg.Assign(in, nil)
		a2, err2 := alg.Assign(in, nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", alg.Name(), err1, err2)
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("%s: nondeterministic at client %d", alg.Name(), i)
			}
		}
	}
}

func TestDGTraceMonotone(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed, 45, 3, 6)
		_, trace, err := NewDistributedGreedy().AssignWithTrace(in, nil)
		if err != nil {
			return false
		}
		prev := trace.InitialD
		for _, d := range trace.DAfter {
			if d > prev+1e-9 {
				return false
			}
			prev = d
		}
		return trace.FinalD() <= trace.InitialD+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDGNeverWorseThanInitial(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInstance(seed, 45, 3, 6)
		nsA, err := NearestServer{}.Assign(in, nil)
		if err != nil {
			return false
		}
		dgA, err := NewDistributedGreedy().Assign(in, nil)
		if err != nil {
			return false
		}
		return in.MaxInteractionPath(dgA) <= in.MaxInteractionPath(nsA)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDGMaxModifications(t *testing.T) {
	in := fig4Instance(t)
	g := DistributedGreedy{MaxModifications: 1}
	_, trace, err := g.AssignWithTrace(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Modifications() != 1 {
		t.Fatalf("modifications = %d, want 1", trace.Modifications())
	}
	if len(trace.Moves) != 1 {
		t.Fatalf("moves = %v, want one entry", trace.Moves)
	}
}

func TestDGFig4Trace(t *testing.T) {
	in := fig4Instance(t)
	_, trace, err := NewDistributedGreedy().AssignWithTrace(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if trace.InitialD != 56 {
		t.Fatalf("initial D = %v, want 56", trace.InitialD)
	}
	if trace.FinalD() != 20 {
		t.Fatalf("final D = %v, want 20", trace.FinalD())
	}
}

func TestDGCustomInitial(t *testing.T) {
	in := fig4Instance(t)
	g := DistributedGreedy{Initial: Greedy{}}
	a, trace, err := g.AssignWithTrace(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy already finds the optimum; DG has nothing to do.
	if trace.Modifications() != 0 {
		t.Fatalf("modifications = %d, want 0 from optimal start", trace.Modifications())
	}
	if got := in.MaxInteractionPath(a); got != 20 {
		t.Fatalf("D = %v, want 20", got)
	}
}

func TestByName(t *testing.T) {
	for _, want := range []string{"Nearest-Server", "Longest-First-Batch", "Greedy", "Distributed-Greedy"} {
		alg, err := ByName(want)
		if err != nil {
			t.Fatalf("ByName(%q): %v", want, err)
		}
		if alg.Name() != want {
			t.Fatalf("ByName(%q).Name() = %q", want, alg.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name should fail")
	}
}

func TestNilInstanceRejected(t *testing.T) {
	for _, alg := range All() {
		if _, err := alg.Assign(nil, nil); err == nil {
			t.Fatalf("%s: nil instance should fail", alg.Name())
		}
	}
}

func TestBruteForceRefusesHuge(t *testing.T) {
	in := randomInstance(2, 60, 8, 8)
	if _, _, err := (BruteForce{MaxStates: 1000}).Solve(in, nil); err == nil {
		t.Fatal("BruteForce should refuse oversized search spaces")
	}
}

func TestBruteForceOptimalMatchesExhaustive(t *testing.T) {
	// Cross-check branch-and-bound against plain enumeration on tiny
	// instances.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		n := 6 + rng.Intn(3)
		m := latency.ScaledLike(n, int64(trial+500))
		perm := rng.Perm(n)
		in, err := core.NewInstanceTrusted(m, perm[:2], perm[2:])
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := BruteForce{}.Solve(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Plain enumeration over 2^{|C|} assignments.
		nc := in.NumClients()
		best := math.Inf(1)
		a := make(core.Assignment, nc)
		for mask := 0; mask < 1<<nc; mask++ {
			for i := 0; i < nc; i++ {
				a[i] = (mask >> i) & 1
			}
			if d := in.MaxInteractionPath(a); d < best {
				best = d
			}
		}
		if math.Abs(got-best) > 1e-9 {
			t.Fatalf("trial %d: branch-and-bound %v, exhaustive %v", trial, got, best)
		}
	}
}

func TestBruteForceDecision(t *testing.T) {
	in := fig4Instance(t)
	bf := BruteForce{}
	yes, err := bf.DecisionD(in, nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !yes {
		t.Fatal("decision at the optimum should be yes")
	}
	no, err := bf.DecisionD(in, nil, 19)
	if err != nil {
		t.Fatal(err)
	}
	if no {
		t.Fatal("decision below the optimum should be no")
	}
}

func TestCapacitatedNSSpillsToSecondNearest(t *testing.T) {
	// Two clients share a nearest server of capacity 1; the second must
	// spill to its second-nearest.
	m := latency.NewMatrix(4)
	set := func(i, j int, v float64) { m[i][j], m[j][i] = v, v }
	// servers: 0, 1; clients: 2, 3. Both clients closest to server 0.
	set(0, 1, 10)
	set(0, 2, 1)
	set(0, 3, 2)
	set(1, 2, 5)
	set(1, 3, 6)
	set(2, 3, 3)
	in, err := core.NewInstanceTrusted(m, []int{0, 1}, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NearestServer{}.Assign(in, core.Capacities{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != 0 || a[1] != 1 {
		t.Fatalf("assignment = %v, want client 0 on server 0, client 1 spilled to server 1", a)
	}
}

func TestCapacitatedLFBPartialBatch(t *testing.T) {
	// One server is nearest for three clients but has capacity 2: LFB must
	// fill it with the two nearest clients and reroute the rest.
	m := latency.NewMatrix(5)
	set := func(i, j int, v float64) { m[i][j], m[j][i] = v, v }
	// servers: 0, 1; clients: 2, 3, 4 — all nearest to server 0.
	set(0, 1, 4)
	set(0, 2, 3) // farthest of the batch (leader)
	set(0, 3, 1)
	set(0, 4, 2)
	set(1, 2, 9)
	set(1, 3, 8)
	set(1, 4, 7)
	set(2, 3, 5)
	set(2, 4, 5)
	set(3, 4, 5)
	in, err := core.NewInstanceTrusted(m, []int{0, 1}, []int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	a, err := LongestFirstBatch{}.Assign(in, core.Capacities{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.CheckCapacities(a, core.Capacities{2, 5}); err != nil {
		t.Fatal(err)
	}
	// Leader is client 0 (node 2, distance 3): batch {clients 0,1,2} is
	// truncated to the two nearest, clients 1 and 2 (nodes 3 and 4);
	// client 0 reroutes to server 1.
	if a[1] != 0 || a[2] != 0 {
		t.Fatalf("assignment = %v: nearest two clients should fill server 0", a)
	}
	if a[0] != 1 {
		t.Fatalf("assignment = %v: leader should spill to server 1", a)
	}
}

func TestGreedySingleServer(t *testing.T) {
	in := randomInstance(12, 20, 1, 1)
	a, err := Greedy{}.Assign(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range a {
		if s != 0 {
			t.Fatalf("client %d on server %d, want 0", i, s)
		}
	}
}

func TestSingleClient(t *testing.T) {
	m := latency.ScaledLike(5, 1)
	in, err := core.NewInstanceTrusted(m, []int{0, 1, 2, 3}, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	// Optimal for a single client is its nearest server (D = 2·dmin).
	nearest := make([]int, 1)
	perfkit.NearestInto(in.FlatClientServer(), nearest)
	for _, alg := range All() {
		a, err := alg.Assign(in, nil)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if a[0] != nearest[0] {
			t.Fatalf("%s assigned client to %d, want nearest %d", alg.Name(), a[0], nearest[0])
		}
	}
}

func BenchmarkNearestServer(b *testing.B)     { benchAlgorithm(b, NearestServer{}) }
func BenchmarkLongestFirstBatch(b *testing.B) { benchAlgorithm(b, LongestFirstBatch{}) }
func BenchmarkGreedy(b *testing.B)            { benchAlgorithm(b, Greedy{}) }
func BenchmarkDistributedGreedy(b *testing.B) { benchAlgorithm(b, NewDistributedGreedy()) }

func benchAlgorithm(b *testing.B, alg Algorithm) {
	b.Helper()
	m := latency.ScaledLike(300, 1)
	servers := make([]int, 30)
	clients := make([]int, 270)
	for i := range servers {
		servers[i] = i
	}
	for i := range clients {
		clients[i] = 30 + i
	}
	in, err := core.NewInstanceTrusted(m, servers, clients)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Assign(in, nil); err != nil {
			b.Fatal(err)
		}
	}
}
