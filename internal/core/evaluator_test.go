package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"diacap/internal/latency"
)

func TestEvaluatorMatchesRecompute(t *testing.T) {
	// Random move sequences: the incremental D must always equal the
	// from-scratch D.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(25)
		m := latency.ScaledLike(n, seed+4000)
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
		ev, err := in.NewEvaluator(a)
		if err != nil {
			return false
		}
		for step := 0; step < 50; step++ {
			c := rng.Intn(in.NumClients())
			s := rng.Intn(ns)
			if rng.Intn(10) == 0 {
				s = Unassigned
			}
			got := ev.Move(c, s)
			want := in.MaxInteractionPath(ev.Assignment())
			if math.Abs(got-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluatorBasics(t *testing.T) {
	in := smallInstance(t)
	ev, err := in.NewEvaluator(Assignment{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ev.D(), in.MaxInteractionPath(Assignment{0, 1, 1}); got != want {
		t.Fatalf("D = %v, want %v", got, want)
	}
	if ev.ServerOf(0) != 0 || ev.Load(1) != 2 {
		t.Fatal("accessors wrong")
	}
	if ev.Eccentricity(0) != 3 { // only client 0 (node 2) at d=3
		t.Fatalf("ecc(0) = %v, want 3", ev.Eccentricity(0))
	}
	// Moving a client to its current server is a no-op.
	before := ev.D()
	if after := ev.Move(0, 0); after != before {
		t.Fatalf("no-op move changed D: %v -> %v", before, after)
	}
}

func TestEvaluatorPeekJoinDoesNotMutate(t *testing.T) {
	in := smallInstance(t)
	ev, err := in.NewEvaluator(Assignment{0, Unassigned, 1})
	if err != nil {
		t.Fatal(err)
	}
	before := ev.D()
	peek := ev.PeekJoin(1, 0)
	if ev.D() != before {
		t.Fatalf("PeekJoin mutated D: %v -> %v", before, ev.D())
	}
	if ev.ServerOf(1) != Unassigned || ev.Load(0) != 1 {
		t.Fatal("PeekJoin placed the client")
	}
	// And the peeked value matches an actual move.
	if got := ev.Move(1, 0); got != peek {
		t.Fatalf("peek %v, actual move %v", peek, got)
	}
}

func TestEvaluatorEccentricityRepair(t *testing.T) {
	// Removing the farthest client must shrink the eccentricity.
	in := smallInstance(t)
	// clients (nodes 2,3,4) all on server 0 (node 0): dists 3, 8, 20.
	ev, err := in.NewEvaluator(Assignment{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Eccentricity(0) != 20 {
		t.Fatalf("ecc = %v, want 20", ev.Eccentricity(0))
	}
	ev.Move(2, Unassigned) // remove the d=20 client
	if ev.Eccentricity(0) != 8 {
		t.Fatalf("ecc after removal = %v, want 8", ev.Eccentricity(0))
	}
	ev.Move(1, Unassigned)
	ev.Move(0, Unassigned)
	if ev.Eccentricity(0) != -1 {
		t.Fatalf("ecc of empty server = %v, want -1", ev.Eccentricity(0))
	}
	if ev.D() != 0 {
		t.Fatalf("D of empty assignment = %v, want 0", ev.D())
	}
}

func TestEvaluatorMaxPathInvolving(t *testing.T) {
	in := smallInstance(t)
	a := Assignment{0, 1, 1}
	ev, err := in.NewEvaluator(a)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		want := math.Inf(-1)
		for j := 0; j < 3; j++ {
			if v := in.InteractionPath(a, c, j); v > want {
				want = v
			}
		}
		if got := ev.MaxPathInvolving(c); math.Abs(got-want) > 1e-9 {
			t.Fatalf("MaxPathInvolving(%d) = %v, want %v", c, got, want)
		}
	}
	ev.Move(0, Unassigned)
	if ev.MaxPathInvolving(0) != -1 {
		t.Fatal("unassigned client should report -1")
	}
}

func TestEvaluatorPartialStart(t *testing.T) {
	in := smallInstance(t)
	ev, err := in.NewEvaluator(NewAssignment(3))
	if err != nil {
		t.Fatal(err)
	}
	if ev.D() != 0 {
		t.Fatalf("empty D = %v", ev.D())
	}
	ev.Move(0, 0)
	if got, want := ev.D(), 2*in.ClientServerDist(0, 0); got != want {
		t.Fatalf("single-client D = %v, want %v", got, want)
	}
}

func TestEvaluatorValidation(t *testing.T) {
	in := smallInstance(t)
	if _, err := in.NewEvaluator(Assignment{0}); err == nil {
		t.Fatal("short assignment should fail")
	}
	if _, err := in.NewEvaluator(Assignment{0, 9, 0}); err == nil {
		t.Fatal("out-of-range server should fail")
	}
	ev, _ := in.NewEvaluator(Assignment{0, 1, 0})
	for _, fn := range []func(){
		func() { ev.Move(-1, 0) },
		func() { ev.Move(0, 7) },
		func() { ev.PeekJoin(0, 1) }, // client 0 is assigned
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestEvaluatorDoesNotRetainCallerSlice(t *testing.T) {
	in := smallInstance(t)
	a := Assignment{0, 1, 0}
	ev, err := in.NewEvaluator(a)
	if err != nil {
		t.Fatal(err)
	}
	a[0] = 1 // caller mutates their slice
	if ev.ServerOf(0) != 0 {
		t.Fatal("evaluator shares storage with the caller")
	}
}

func BenchmarkEvaluatorMove(b *testing.B) {
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
	ev, err := in.NewEvaluator(a)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Move(rng.Intn(450), rng.Intn(50))
	}
}
