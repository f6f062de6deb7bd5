package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"diacap/internal/latency"
)

// smallMatrix builds a 5-node valid matrix:
// nodes 0,1 servers; 2,3,4 clients.
func smallMatrix() latency.Matrix {
	m := latency.NewMatrix(5)
	set := func(i, j int, v float64) { m[i][j], m[j][i] = v, v }
	set(0, 1, 10)
	set(0, 2, 3)
	set(0, 3, 8)
	set(0, 4, 20)
	set(1, 2, 12)
	set(1, 3, 5)
	set(1, 4, 4)
	set(2, 3, 6)
	set(2, 4, 18)
	set(3, 4, 7)
	return m
}

func smallInstance(t testing.TB) *Instance {
	t.Helper()
	in, err := NewInstance(smallMatrix(), []int{0, 1}, []int{2, 3, 4})
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return in
}

func TestNewInstanceValidation(t *testing.T) {
	m := smallMatrix()
	cases := []struct {
		name    string
		servers []int
		clients []int
	}{
		{"no servers", nil, []int{2}},
		{"no clients", []int{0}, nil},
		{"server out of range", []int{5}, []int{2}},
		{"negative server", []int{-1}, []int{2}},
		{"client out of range", []int{0}, []int{9}},
		{"duplicate server", []int{0, 0}, []int{2}},
		{"duplicate client", []int{0}, []int{2, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewInstance(m, tc.servers, tc.clients); err == nil {
				t.Fatal("NewInstance should fail")
			}
		})
	}
}

func TestNewInstanceRejectsBadMatrix(t *testing.T) {
	m := smallMatrix()
	m[0][1] = -5
	if _, err := NewInstance(m, []int{0}, []int{2}); err == nil {
		t.Fatal("NewInstance should reject invalid matrix")
	}
}

func TestInstanceAccessors(t *testing.T) {
	in := smallInstance(t)
	if in.NumServers() != 2 || in.NumClients() != 3 {
		t.Fatalf("sizes = %d servers, %d clients; want 2, 3", in.NumServers(), in.NumClients())
	}
	if in.ServerNode(1) != 1 || in.ClientNode(2) != 4 {
		t.Fatal("node index accessors wrong")
	}
	if in.ClientServerDist(0, 0) != 3 { // d(node2, node0)
		t.Fatalf("ClientServerDist(0,0) = %v, want 3", in.ClientServerDist(0, 0))
	}
	if in.ServerServerDist(0, 1) != 10 {
		t.Fatalf("ServerServerDist(0,1) = %v, want 10", in.ServerServerDist(0, 1))
	}
	if got := in.ClientServerRow(1); got[0] != 8 || got[1] != 5 {
		t.Fatalf("ClientServerRow(1) = %v, want [8 5]", got)
	}
	if got := in.ServerServerRow(0); got[0] != 0 || got[1] != 10 {
		t.Fatalf("ServerServerRow(0) = %v, want [0 10]", got)
	}
}

func TestAssignmentBasics(t *testing.T) {
	a := NewAssignment(3)
	if a.Complete() {
		t.Fatal("fresh assignment should be incomplete")
	}
	a[0], a[1], a[2] = 0, 1, 0
	if !a.Complete() {
		t.Fatal("assignment should be complete")
	}
	c := a.Clone()
	c[0] = 1
	if a[0] != 0 {
		t.Fatal("Clone shares storage")
	}
}

func TestValidateAssignment(t *testing.T) {
	in := smallInstance(t)
	cases := []struct {
		name    string
		a       Assignment
		wantErr bool
	}{
		{"ok", Assignment{0, 1, 0}, false},
		{"wrong length", Assignment{0, 1}, true},
		{"unassigned", Assignment{0, Unassigned, 1}, true},
		{"out of range", Assignment{0, 1, 2}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := in.Validate(tc.a)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate(%v) = %v, wantErr %v", tc.a, err, tc.wantErr)
			}
		})
	}
}

func TestLoadsAndUsedServers(t *testing.T) {
	in := smallInstance(t)
	a := Assignment{0, 0, Unassigned}
	loads := in.Loads(a)
	if loads[0] != 2 || loads[1] != 0 {
		t.Fatalf("Loads = %v, want [2 0]", loads)
	}
	used := in.UsedServers(a)
	if len(used) != 1 || used[0] != 0 {
		t.Fatalf("UsedServers = %v, want [0]", used)
	}
}

func TestInteractionPathValues(t *testing.T) {
	in := smallInstance(t)
	// clients: 0→node2, 1→node3, 2→node4; servers: 0→node0, 1→node1.
	a := Assignment{0, 1, 1}
	// path(c0, c1) = d(2,0) + d(0,1) + d(1,3) = 3 + 10 + 5 = 18
	if got := in.InteractionPath(a, 0, 1); got != 18 {
		t.Fatalf("InteractionPath(0,1) = %v, want 18", got)
	}
	// symmetric
	if got := in.InteractionPath(a, 1, 0); got != 18 {
		t.Fatalf("InteractionPath(1,0) = %v, want 18", got)
	}
	// self path = 2*d(2,0) = 6
	if got := in.InteractionPath(a, 0, 0); got != 6 {
		t.Fatalf("InteractionPath(0,0) = %v, want 6", got)
	}
	// same server: d(3,1) + 0 + d(1,4) = 5 + 4 = 9
	if got := in.InteractionPath(a, 1, 2); got != 9 {
		t.Fatalf("InteractionPath(1,2) = %v, want 9", got)
	}
}

func TestInteractionPathUnassignedPanics(t *testing.T) {
	in := smallInstance(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unassigned client")
		}
	}()
	in.InteractionPath(Assignment{0, Unassigned, 0}, 0, 1)
}

func TestMaxInteractionPathMatchesNaive(t *testing.T) {
	in := smallInstance(t)
	for _, a := range []Assignment{
		{0, 0, 0}, {1, 1, 1}, {0, 1, 1}, {0, 1, 0}, {1, 0, 0},
		{0, Unassigned, 1}, {Unassigned, Unassigned, Unassigned},
	} {
		fast := in.MaxInteractionPath(a)
		naive := in.MaxPathNaive(a)
		if math.Abs(fast-naive) > 1e-9 {
			t.Fatalf("assignment %v: fast D = %v, naive = %v", a, fast, naive)
		}
	}
}

func TestMaxInteractionPathRandomizedAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(30)
		m := latency.ScaledLike(n, seed)
		ns := 2 + rng.Intn(4)
		servers := make([]int, 0, ns)
		clients := make([]int, 0, n-ns)
		perm := rng.Perm(n)
		for i, p := range perm {
			if i < ns {
				servers = append(servers, p)
			} else {
				clients = append(clients, p)
			}
		}
		in, err := NewInstanceTrusted(m, servers, clients)
		if err != nil {
			return false
		}
		a := make(Assignment, len(clients))
		for i := range a {
			a[i] = rng.Intn(ns)
		}
		return math.Abs(in.MaxInteractionPath(a)-in.MaxPathNaive(a)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLowerBoundIsLowerBound(t *testing.T) {
	// The lower bound must not exceed D of any complete assignment.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(25)
		m := latency.ScaledLike(n, seed+1000)
		ns := 2 + rng.Intn(3)
		perm := rng.Perm(n)
		in, err := NewInstanceTrusted(m, perm[:ns], perm[ns:])
		if err != nil {
			return false
		}
		lb := in.LowerBound()
		for trial := 0; trial < 5; trial++ {
			a := make(Assignment, in.NumClients())
			for i := range a {
				a[i] = rng.Intn(ns)
			}
			if in.MaxInteractionPath(a) < lb-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLowerBoundBruteForce(t *testing.T) {
	// Cross-check the O(|C||S|²+|C|²|S|) lower bound against direct
	// 4-level enumeration.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 6 + rng.Intn(10)
		m := latency.ScaledLike(n, int64(trial))
		ns := 2 + rng.Intn(3)
		perm := rng.Perm(n)
		in, err := NewInstanceTrusted(m, perm[:ns], perm[ns:])
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		for i := 0; i < in.NumClients(); i++ {
			for j := 0; j < in.NumClients(); j++ {
				best := math.Inf(1)
				for k := 0; k < ns; k++ {
					for l := 0; l < ns; l++ {
						v := in.ClientServerDist(i, k) + in.ServerServerDist(k, l) + in.ClientServerDist(j, l)
						if v < best {
							best = v
						}
					}
				}
				if best > want {
					want = best
				}
			}
		}
		if got := in.LowerBound(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: LowerBound = %v, brute force = %v", trial, got, want)
		}
	}
}

func TestLowerBoundCached(t *testing.T) {
	in := smallInstance(t)
	first := in.LowerBound()
	second := in.LowerBound()
	if first != second {
		t.Fatal("LowerBound should be deterministic and cached")
	}
}

func TestNormalizedInteractivityAtLeastOne(t *testing.T) {
	in := smallInstance(t)
	for _, a := range []Assignment{{0, 0, 0}, {1, 1, 1}, {0, 1, 1}} {
		if ni := in.NormalizedInteractivity(a); ni < 1-1e-9 {
			t.Fatalf("normalized interactivity %v < 1 for %v", ni, a)
		}
	}
}

func TestCapacities(t *testing.T) {
	in := smallInstance(t)
	caps := UniformCapacities(2, 2)
	if err := in.ValidateCapacities(caps); err != nil {
		t.Fatalf("ValidateCapacities: %v", err)
	}
	if err := in.ValidateCapacities(nil); err != nil {
		t.Fatalf("nil capacities should validate: %v", err)
	}
	if err := in.ValidateCapacities(UniformCapacities(2, 1)); err == nil {
		t.Fatal("total capacity 2 < 3 clients should fail")
	}
	if err := in.ValidateCapacities(Capacities{-1, 5}); err == nil {
		t.Fatal("negative capacity should fail")
	}
	if err := in.ValidateCapacities(Capacities{5}); err == nil {
		t.Fatal("length mismatch should fail")
	}

	ok := Assignment{0, 0, 1}
	if err := in.CheckCapacities(ok, caps); err != nil {
		t.Fatalf("CheckCapacities: %v", err)
	}
	over := Assignment{0, 0, 0}
	if err := in.CheckCapacities(over, caps); err == nil {
		t.Fatal("3 clients on capacity-2 server should fail")
	}
	if err := in.CheckCapacities(over, nil); err != nil {
		t.Fatal("nil capacities never fail")
	}
	if err := in.CheckCapacities(ok, Capacities{1}); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

func TestComputeOffsetsFeasible(t *testing.T) {
	// Theorem (Section II-C): δ = D with the constructed offsets satisfies
	// constraints (i) and (ii), for every assignment.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(25)
		m := latency.ScaledLike(n, seed+2000)
		ns := 2 + rng.Intn(4)
		perm := rng.Perm(n)
		in, err := NewInstanceTrusted(m, perm[:ns], perm[ns:])
		if err != nil {
			return false
		}
		a := make(Assignment, in.NumClients())
		for i := range a {
			a[i] = rng.Intn(ns)
		}
		off, err := in.ComputeOffsets(a)
		if err != nil {
			return false
		}
		return len(in.CheckFeasibility(a, off.D, off)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSmallerDeltaInfeasible(t *testing.T) {
	// δ < D must violate a constraint for any offsets of the constructed
	// form; verify with the canonical offsets.
	in := smallInstance(t)
	a := Assignment{0, 1, 1}
	off, err := in.ComputeOffsets(a)
	if err != nil {
		t.Fatalf("ComputeOffsets: %v", err)
	}
	d := in.MaxInteractionPath(a)
	if off.D != d {
		t.Fatalf("offsets D = %v, want %v", off.D, d)
	}
	violations := in.CheckFeasibility(a, d*0.9, off)
	if len(violations) == 0 {
		t.Fatal("δ < D should violate constraint (i)")
	}
	for _, v := range violations {
		if v.Slack <= 0 {
			t.Fatalf("violation slack %v should be positive", v.Slack)
		}
		if v.String() == "" {
			t.Fatal("violation should render")
		}
	}
}

func TestComputeOffsetsRejectsPartial(t *testing.T) {
	in := smallInstance(t)
	if _, err := in.ComputeOffsets(Assignment{0, Unassigned, 1}); err == nil {
		t.Fatal("ComputeOffsets should reject partial assignments")
	}
}

func TestInteractionTimeSynchronized(t *testing.T) {
	in := smallInstance(t)
	a := Assignment{0, 1, 1}
	off, _ := in.ComputeOffsets(a)
	// With synchronized clients every pairwise interaction time equals δ.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			got := in.InteractionTime(off.D, SynchronizedClients, i, j)
			if got != off.D {
				t.Fatalf("InteractionTime(%d,%d) = %v, want %v", i, j, got, off.D)
			}
		}
	}
}

func TestOffsetsConstraintTightness(t *testing.T) {
	// For the server on the longest interaction path, constraint (i) is
	// tight: some (client, server) pair achieves equality with δ = D.
	in := smallInstance(t)
	a := Assignment{0, 1, 1}
	off, _ := in.ComputeOffsets(a)
	tight := false
	for i, s := range a {
		for l := range off.ServerAhead {
			lhs := in.ClientServerDist(i, s) + in.ServerServerDist(s, l) + off.ServerAhead[l]
			if math.Abs(lhs-off.D) < 1e-9 {
				tight = true
			}
		}
	}
	if !tight {
		t.Fatal("constraint (i) should be tight somewhere at δ = D")
	}
}

func BenchmarkMaxInteractionPath(b *testing.B) {
	m := latency.ScaledLike(500, 1)
	servers := make([]int, 50)
	clients := make([]int, 450)
	for i := range servers {
		servers[i] = i
	}
	for i := range clients {
		clients[i] = 50 + i
	}
	in, err := NewInstanceTrusted(m, servers, clients)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	a := make(Assignment, 450)
	for i := range a {
		a[i] = rng.Intn(50)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.MaxInteractionPath(a)
	}
}

func BenchmarkLowerBound(b *testing.B) {
	m := latency.ScaledLike(400, 1)
	servers := make([]int, 40)
	clients := make([]int, 360)
	for i := range servers {
		servers[i] = i
	}
	for i := range clients {
		clients[i] = 40 + i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := NewInstanceTrusted(m, servers, clients)
		if err != nil {
			b.Fatal(err)
		}
		in.LowerBound()
	}
}
