package core_test

// Differential tests for the hot paths: every optimized evaluator must
// agree bit-for-bit with its retained reference — MaxInteractionPath
// and the incremental Evaluator with the scalar eccentricity reference,
// the pruned LowerBound with LowerBoundReference — on SyntheticInternet
// instances, on tie-heavy instances, at full Meridian scale, and on
// fuzz-generated instances. Exact equality (asserted on
// math.Float64bits, never on rounded values) is the repo's determinism
// contract: the optimized forms reorder comparisons and skip candidates
// that provably cannot win, but combine the same operands in the same
// association, so any bit of divergence from the same-decomposition
// reference is a bug, not noise. The client-pair walk MaxPathNaive and
// the eccentricity decomposition are compared to each other only at the
// repo's 1e-9 cross-algorithm tolerance (see eccPathReference).

import (
	"math"
	"math/rand"
	"testing"

	"diacap/internal/core"
	"diacap/internal/latency"
	"diacap/internal/placement"
)

// diffInstance builds an instance over a matrix with ns random servers
// and a client at every node.
func diffInstance(t testing.TB, m latency.Matrix, ns int, seed int64) *core.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(m.Len())
	servers := append([]int(nil), perm[:ns]...)
	clients := make([]int, m.Len())
	for i := range clients {
		clients[i] = i
	}
	in, err := core.NewInstanceTrusted(m, servers, clients)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// diffAssignment returns a random partial assignment.
func diffAssignment(in *core.Instance, seed int64, unassignedFrac float64) core.Assignment {
	rng := rand.New(rand.NewSource(seed))
	a := core.NewAssignment(in.NumClients())
	for i := range a {
		if rng.Float64() >= unassignedFrac {
			a[i] = rng.Intn(in.NumServers())
		}
	}
	return a
}

// eccPathReference is the retained scalar form of the eccentricity
// decomposition (the pre-perfkit MaxInteractionPath body): the oracle
// for MaxInteractionPath and Evaluator.D. It is NOT bit-identical to
// the client-pair walk in general — the two associate the same three
// addends in different orders when the witness pair's servers are
// index-inverted — which is why the pair walk (MaxPathNaive) and the
// ecc decomposition are each checked against their own form, and
// cross-form agreement is asserted to 1e-9 like the repo always has.
func eccPathReference(in *core.Instance, a core.Assignment) float64 {
	ecc := in.Eccentricities(a)
	var max float64
	for k := 0; k < in.NumServers(); k++ {
		if ecc[k] < 0 {
			continue
		}
		for l := k; l < in.NumServers(); l++ {
			if ecc[l] < 0 {
				continue
			}
			if v := ecc[k] + in.ServerServerDist(k, l) + ecc[l]; v > max {
				max = v
			}
		}
	}
	return max
}

// checkBitsEqual asserts two float64 values are bit-identical.
func checkBitsEqual(t *testing.T, label string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %v (bits %x) != reference %v (bits %x)",
			label, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkInstance runs the full differential battery on one instance.
func checkInstance(t *testing.T, in *core.Instance, seed int64) {
	t.Helper()
	a := diffAssignment(in, seed, 0.1)
	refEcc := eccPathReference(in, a)
	if pairs := in.MaxPathNaive(a); math.Abs(pairs-refEcc) > 1e-9 {
		t.Fatalf("pair walk and ecc reference disagree beyond tolerance: %v vs %v", pairs, refEcc)
	}
	checkBitsEqual(t, "MaxInteractionPath", in.MaxInteractionPath(a), refEcc)
	checkBitsEqual(t, "LowerBound", in.LowerBound(), in.LowerBoundReference())

	ev, err := in.NewEvaluator(a)
	if err != nil {
		t.Fatal(err)
	}
	checkBitsEqual(t, "Evaluator.D", ev.D(), refEcc)

	// A short random move sequence keeps exact agreement with the
	// from-scratch references after every mutation.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	cur := a.Clone()
	for step := 0; step < 25; step++ {
		c := rng.Intn(in.NumClients())
		s := rng.Intn(in.NumServers())
		if rng.Float64() < 0.1 {
			s = core.Unassigned
		}
		cur[c] = s
		want := eccPathReference(in, cur)
		checkBitsEqual(t, "Evaluator.Move", ev.Move(c, s), want)
		if pairs := in.MaxPathNaive(cur); math.Abs(pairs-want) > 1e-9 {
			t.Fatalf("step %d: pair walk %v vs ecc reference %v beyond tolerance", step, pairs, want)
		}
	}
}

func TestDifferentialSyntheticInternet(t *testing.T) {
	for _, tc := range []struct {
		nodes, servers int
		seed           int64
	}{
		{40, 4, 1},
		{90, 7, 2},
		{200, 16, 3},
	} {
		m, err := latency.SyntheticInternet(latency.DefaultConfig(tc.nodes), tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		in := diffInstance(t, m, tc.servers, tc.seed)
		checkInstance(t, in, tc.seed*31)
	}
}

// TestDifferentialTies runs the battery where exact ties are the rule:
// integer latencies 1–4, and an instance where every client-server and
// every server-server distance is equal. The lower bound's prunes stop
// on ≥ and ≤, so every tie sits on a stopping boundary.
func TestDifferentialTies(t *testing.T) {
	for _, tc := range []struct {
		nodes, servers int
		seed           int64
	}{
		{40, 4, 1},
		{90, 7, 2},
		{120, 12, 3},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		m := latency.NewMatrix(tc.nodes)
		for i := 0; i < tc.nodes; i++ {
			for j := i + 1; j < tc.nodes; j++ {
				v := float64(1 + rng.Intn(4))
				m[i][j], m[j][i] = v, v
			}
		}
		checkInstance(t, diffInstance(t, m, tc.servers, tc.seed), tc.seed*17)
	}

	// Five servers and 25 clients on distinct nodes, all 7 ms apart.
	m := latency.NewMatrix(30)
	for i := range m {
		for j := range m[i] {
			if i != j {
				m[i][j] = 7
			}
		}
	}
	servers, clients := []int{0, 1, 2, 3, 4}, make([]int, 25)
	for i := range clients {
		clients[i] = 5 + i
	}
	in, err := core.NewInstance(m, servers, clients)
	if err != nil {
		t.Fatal(err)
	}
	checkInstance(t, in, 5)
}

// TestDifferentialWitnessPrune pins the lower bound's row order and
// witness walk on an instance built so that each of them matters. The
// servers are nodes 0–2 and the clients I (client 0) and J (client 1):
//
//   - server 2 is 50 from every node, so no client is nearest to it and
//     R[2] = −Inf;
//   - J is visited first, with order key 0.3 + (0.2 + 0.1), but its one
//     pair, (J, J) = 0.3 + 0.3 = 0.6, does not realize the bound;
//   - at lb = 0.6, I has a witness for server 0 and none for server 1,
//     its last column with R > −Inf: (0.1 + 0.2) + 0.3 > 0.6, while
//     without the R[1] = 0.3 term server 0 would witness it;
//   - I's order key 0.1 + (0.2 + 0.3) is 0.6, the running bound, one ulp
//     below the bound (0.1 + 0.2) + 0.3 of pair (I, J), so a loop that
//     stopped on the key would return 0.6.
func TestDifferentialWitnessPrune(t *testing.T) {
	a, b, c := 0.1, 0.2, 0.3
	if (a+b)+c == a+(b+c) {
		t.Fatalf("(%v + %v) + %v rounds like %v + (%v + %v); the instance needs them one ulp apart", a, b, c, a, b, c)
	}
	m := latency.NewMatrix(5)
	set := func(u, v int, d float64) { m[u][v], m[v][u] = d, d }
	set(0, 1, b)
	set(0, 2, 50)
	set(1, 2, 50)
	set(3, 0, a)
	set(3, 1, 10)
	set(3, 2, 50)
	set(4, 0, 10)
	set(4, 1, c)
	set(4, 2, 50)
	set(3, 4, 10)
	in, err := core.NewInstance(m, []int{0, 1, 2}, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < in.NumClients(); i++ {
		if d := in.ClientServerDist(i, 2); d <= in.ClientServerDist(i, 0) || d <= in.ClientServerDist(i, 1) {
			t.Fatalf("client %d is nearest to server 2", i)
		}
	}
	checkBitsEqual(t, "LowerBoundReference", in.LowerBoundReference(), (a+b)+c)
	checkBitsEqual(t, "LowerBoundUncached", in.LowerBoundUncached(), (a+b)+c)
	checkInstance(t, in, 3)
}

// TestDifferentialLowerBoundSweep checks the lower bound bit for bit on
// many small seeded instances: integer latencies 1–4 (ties on every
// stopping boundary) alternating with real-valued ones, up to 12
// servers among 5–40 nodes, so that some servers are no client's
// nearest, and clients that include the server nodes or not.
func TestDifferentialLowerBoundSweep(t *testing.T) {
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < trials; trial++ {
		n := 5 + rng.Intn(36)
		var m latency.Matrix
		if trial%2 == 0 {
			m = latency.NewMatrix(n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					v := float64(1 + rng.Intn(4))
					m[i][j], m[j][i] = v, v
				}
			}
		} else {
			m = latency.ScaledLike(n, int64(trial))
		}
		perm := rng.Perm(n)
		ns := 1 + rng.Intn(min(12, n-1))
		clients := perm[ns:]
		if trial%3 == 0 {
			clients = perm
		}
		in, err := core.NewInstanceTrusted(m, perm[:ns], clients)
		if err != nil {
			t.Fatal(err)
		}
		got, want := in.LowerBoundUncached(), in.LowerBoundReference()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (%d nodes, %d servers, %d clients): LowerBoundUncached %v, reference %v",
				trial, n, ns, len(clients), got, want)
		}
	}
}

// TestDifferentialMeridianScale exercises the hot paths at the paper's
// full Meridian scale (1796 nodes, 80 servers) — the regime
// cmd/diabench benchmarks — so tiling bugs that only appear past the
// cache-resident sizes cannot hide. The lower bound is checked on
// solve-meridian's own layout (K-center-B servers, permuted clients) and
// at MIT-like scale.
func TestDifferentialMeridianScale(t *testing.T) {
	if testing.Short() {
		t.Skip("meridian-scale differential is seconds-long; skipped with -short")
	}
	m := latency.MeridianLike(1)
	in := diffInstance(t, m, 80, 7)
	a := diffAssignment(in, 99, 0.05)
	refEcc := eccPathReference(in, a)
	if pairs := in.MaxPathNaive(a); math.Abs(pairs-refEcc) > 1e-9 {
		t.Fatalf("pair walk and ecc reference disagree beyond tolerance: %v vs %v", pairs, refEcc)
	}
	checkBitsEqual(t, "MaxInteractionPath@meridian", in.MaxInteractionPath(a), refEcc)

	servers, err := placement.PlaceKCenterB(m, 80)
	if err != nil {
		t.Fatal(err)
	}
	solve, err := core.NewInstanceTrusted(m, servers, rand.New(rand.NewSource(1)).Perm(m.Len()))
	if err != nil {
		t.Fatal(err)
	}
	checkBitsEqual(t, "LowerBound@meridian-kcenter", solve.LowerBound(), solve.LowerBoundReference())

	mit := diffInstance(t, latency.MITLike(2), 32, 8)
	checkBitsEqual(t, "LowerBound@mit", mit.LowerBound(), mit.LowerBoundReference())
}

// FuzzDifferentialInstance feeds fuzz-shaped instances through the
// same battery: the eccentricity evaluators must match the scalar ecc
// reference bit-for-bit, the pruned lower bound must match
// LowerBoundReference bit-for-bit, and the pair walk must agree with the
// ecc form to the repo's cross-algorithm tolerance.
func FuzzDifferentialInstance(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(4))
	f.Add(int64(77), uint8(3), uint8(2))
	f.Add(int64(-12), uint8(120), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, nodesRaw, serversRaw uint8) {
		nodes := int(nodesRaw)%150 + 2
		ns := int(serversRaw)%nodes + 1
		m, err := latency.SyntheticInternet(latency.DefaultConfig(nodes), seed)
		if err != nil {
			t.Skip()
		}
		in := diffInstance(t, m, ns, seed)
		a := diffAssignment(in, seed^0xfeed, 0.2)
		refEcc := eccPathReference(in, a)
		if pairs := in.MaxPathNaive(a); math.Abs(pairs-refEcc) > 1e-9 {
			t.Fatalf("pair walk and ecc reference disagree beyond tolerance: %v vs %v", pairs, refEcc)
		}
		if got := in.MaxInteractionPath(a); math.Float64bits(got) != math.Float64bits(refEcc) {
			t.Fatalf("MaxInteractionPath %v != reference %v", got, refEcc)
		}
		ev, err := in.NewEvaluator(a)
		if err != nil {
			t.Fatal(err)
		}
		if got := ev.D(); math.Float64bits(got) != math.Float64bits(refEcc) {
			t.Fatalf("Evaluator.D %v != reference %v", got, refEcc)
		}
		if got, want := in.LowerBound(), in.LowerBoundReference(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("LowerBound %v != reference %v", got, want)
		}
	})
}
