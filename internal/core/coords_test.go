package core_test

import (
	"math/rand"
	"sort"
	"testing"

	"diacap/internal/core"
	"diacap/internal/latency"
)

// coordSet is a seeded coordinate set with a coincident zero-height
// pair appended, so the 1e-9 floor shows up in the tables.
func coordSet(t *testing.T, n int, seed int64) []latency.Coord {
	t.Helper()
	cs, err := latency.GenerateCoords(latency.DefaultConfig(n), seed)
	if err != nil {
		t.Fatal(err)
	}
	return append(cs, latency.Coord{X: 10, Y: 20}, latency.Coord{X: 10, Y: 20})
}

// checkTablesEqual asserts two instances hold the same node ids and the
// same client-server and server-server tables, bit for bit.
func checkTablesEqual(t *testing.T, label string, got, want *core.Instance) {
	t.Helper()
	if got.NumServers() != want.NumServers() || got.NumClients() != want.NumClients() {
		t.Fatalf("%s: %d servers, %d clients; want %d, %d", label,
			got.NumServers(), got.NumClients(), want.NumServers(), want.NumClients())
	}
	for k := 0; k < want.NumServers(); k++ {
		if got.ServerNode(k) != want.ServerNode(k) {
			t.Fatalf("%s: server %d is node %d, want %d", label, k, got.ServerNode(k), want.ServerNode(k))
		}
		for l := 0; l < want.NumServers(); l++ {
			checkBitsEqual(t, label+" ServerServerDist", got.ServerServerDist(k, l), want.ServerServerDist(k, l))
		}
	}
	for i := 0; i < want.NumClients(); i++ {
		if got.ClientNode(i) != want.ClientNode(i) {
			t.Fatalf("%s: client %d is node %d, want %d", label, i, got.ClientNode(i), want.ClientNode(i))
		}
		for k := 0; k < want.NumServers(); k++ {
			checkBitsEqual(t, label+" ClientServerDist", got.ClientServerDist(i, k), want.ClientServerDist(i, k))
		}
	}
}

// TestNewInstanceCoordsMatchesMatrix pins NewInstanceCoords to the
// matrix-built instance it replaces, on NewPopulation-style interleaved
// node ids (clients below servers), with a node in both sets, and on
// every index-set error.
func TestNewInstanceCoordsMatchesMatrix(t *testing.T) {
	cs := coordSet(t, 60, 3)
	m := latency.CoordsToMatrix(cs)
	perm := rand.New(rand.NewSource(3)).Perm(len(cs))
	servers := append([]int(nil), perm[:7]...)
	clients := append([]int(nil), perm[7:]...)
	sort.Ints(servers)
	sort.Ints(clients)
	if clients[0] > servers[0] {
		t.Fatal("permutation put no client below a server; the interleaving is not exercised")
	}
	shared := append([]int{servers[2]}, clients...)

	cases := []struct {
		name             string
		servers, clients []int
	}{
		{"interleaved", servers, clients},
		{"node in both sets", servers, shared},
		{"coincident pair", []int{len(cs) - 2, 0}, []int{len(cs) - 1, 1}},
	}
	for _, c := range cases {
		got, err := core.NewInstanceCoords(cs, c.servers, c.clients)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := core.NewInstanceTrusted(m, c.servers, c.clients)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkTablesEqual(t, c.name, got, want)
	}

	n := len(cs)
	bad := []struct {
		name             string
		servers, clients []int
	}{
		{"no servers", nil, []int{0}},
		{"no clients", []int{0}, nil},
		{"server out of range", []int{n}, []int{0}},
		{"negative server", []int{-1}, []int{0}},
		{"client out of range", []int{0}, []int{1, n}},
		{"duplicate server", []int{2, 2}, []int{0}},
		{"duplicate client", []int{0}, []int{1, 1}},
	}
	for _, c := range bad {
		_, gotErr := core.NewInstanceCoords(cs, c.servers, c.clients)
		_, wantErr := core.NewInstanceTrusted(m, c.servers, c.clients)
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: NewInstanceCoords error %v, NewInstanceTrusted error %v", c.name, gotErr, wantErr)
		}
	}
}

// TestRestrictMatchesMatrixSubinstance pins Instance.Restrict to the
// sub-instance built from the matrix over the chosen clients' nodes:
// same tables, same D for a seeded assignment, same lower bound.
func TestRestrictMatchesMatrixSubinstance(t *testing.T) {
	cs := coordSet(t, 80, 5)
	m := latency.CoordsToMatrix(cs)
	perm := rand.New(rand.NewSource(5)).Perm(len(cs))
	servers, clients := perm[:9], perm[9:]
	in, err := core.NewInstanceCoords(cs, servers, clients)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var idx []int
	for i := range clients {
		if rng.Intn(3) > 0 {
			idx = append(idx, i)
		}
	}
	rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	nodes := make([]int, len(idx))
	for i, c := range idx {
		nodes[i] = in.ClientNode(c)
	}

	sub := in.Restrict(idx)
	want, err := core.NewInstanceTrusted(m, servers, nodes)
	if err != nil {
		t.Fatal(err)
	}
	checkTablesEqual(t, "Restrict", sub, want)
	a := diffAssignment(want, 13, 0)
	checkBitsEqual(t, "Restrict MaxInteractionPath", sub.MaxInteractionPath(a), want.MaxInteractionPath(a))
	checkBitsEqual(t, "Restrict LowerBound", sub.LowerBound(), want.LowerBound())
}
