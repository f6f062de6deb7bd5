package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"diacap/internal/latency"
)

// TestDistanceOrder pins distanceOrder to a comparison sort on
// (distance, index) for the spreads that must bypass the bucket map
// (zero, NaN, ±Inf, one so small that (n−1)/spread overflows) and for
// signed zeros, an outlier and random ties.
func TestDistanceOrder(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tiny := math.SmallestNonzeroFloat64
	cases := map[string][]float64{
		"one":        {3},
		"zero":       {7, 7, 7, 7},
		"nan":        {2, nan, 1, 2, nan, 0},
		"+inf":       {1, inf, 0, inf, 1},
		"-inf":       {1, -inf, 0, 2},
		"overflow":   {tiny, 0, tiny, 0, tiny},
		"signed 0":   {0, math.Copysign(0, -1), 1, 0, math.Copysign(0, -1)},
		"outlier":    {1, 2, 1, 3, 1000, 2, 4, 1},
		"negative":   {-3, 2, -3, 0.5, -1e-300, 1e-300},
		"two values": {5, 1, 5, 1},
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		d := make([]float64, 1+rng.Intn(60))
		for j := range d {
			d[j] = float64(rng.Intn(6)) * 0.1
		}
		cases[fmt.Sprintf("random %d", i)] = d
	}
	for name, dist := range cases {
		list := make([]ClientDist, len(dist))
		distanceOrder(dist, list, make([]int, len(dist)+1))
		checkList(t, name, list, dist)
	}
}

// checkList fails unless list holds every client of dist in the order
// a comparison sort on (distance, index) gives, each with its distance
// bit for bit.
func checkList(t *testing.T, where string, list []ClientDist, dist []float64) {
	t.Helper()
	want := make([]int, len(dist))
	for i := range want {
		want[i] = i
	}
	sort.Slice(want, func(x, y int) bool {
		if c := cmp.Compare(dist[want[x]], dist[want[y]]); c != 0 {
			return c < 0
		}
		return want[x] < want[y]
	})
	if len(list) != len(want) {
		t.Fatalf("%s: %d entries, want %d", where, len(list), len(want))
	}
	for p, e := range list {
		if e.C != want[p] || math.Float64bits(e.D) != math.Float64bits(dist[e.C]) {
			t.Fatalf("%s: position %d holds (%v, %d), want client %d", where, p, e.D, e.C, want[p])
		}
	}
}

// checkServerLists fails unless in.ServerLists() is, for every server,
// the comparison-sorted list of the instance's own distances.
func checkServerLists(t *testing.T, where string, in *Instance) {
	t.Helper()
	lists := in.ServerLists()
	if len(lists) != in.NumServers() {
		t.Fatalf("%s: %d lists for %d servers", where, len(lists), in.NumServers())
	}
	dist := make([]float64, in.NumClients())
	for k, list := range lists {
		for i := range dist {
			dist[i] = in.ClientServerDist(i, k)
		}
		checkList(t, fmt.Sprintf("%s, server %d", where, k), list, dist)
	}
}

// TestServerListsBuiltOncePerInstance checks that the lists are built
// once and shared by every call, and that a Restrict'ed sub-instance
// builds its own over its own clients after its parent built the
// parent's.
func TestServerListsBuiltOncePerInstance(t *testing.T) {
	m := latency.ScaledLike(60, 4)
	servers := []int{0, 7, 19, 33, 48}
	clients := make([]int, m.Len())
	for i := range clients {
		clients[i] = i
	}
	in, err := NewInstanceTrusted(m, servers, clients)
	if err != nil {
		t.Fatal(err)
	}
	checkServerLists(t, "parent", in)
	first, again := in.ServerLists(), in.ServerLists()
	if &first[0][0] != &again[0][0] {
		t.Fatal("a second ServerLists call rebuilt the lists")
	}

	checkServerLists(t, "restricted", in.Restrict([]int{50, 3, 21, 8, 44, 12}))
}
