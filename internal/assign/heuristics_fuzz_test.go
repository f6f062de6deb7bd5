package assign

import (
	"testing"

	"diacap/internal/core"
	"diacap/internal/latency"
)

// heuristicsInput is one instance decoded by decodeHeuristicsInput.
type heuristicsInput struct {
	in      *core.Instance
	weights Weights         // nil for unit weights
	caps    core.Capacities // nil for uncapacitated
	maxMods int             // Distributed-Greedy's MaxModifications
	initial Algorithm       // Distributed-Greedy's initial assignment
}

// decodeHeuristicsInput reads a small, tie-heavy instance from data;
// missing bytes read as 0. Byte 0 sizes the node set (2–13 nodes) and
// byte 1 the server count (1–5, fewer than the nodes). Byte 2 holds
// flags: bit 0 makes every node a client, servers included; bit 1 adds
// capacities; bit 2 draws 1–4 client weights; bit 3 starts
// Distributed-Greedy from Longest-First-Batch. Byte 3 is DG's
// MaxModifications (0–7). Then one byte per node pair gives its latency
// (0–4), one byte per client its weight and one byte per server its
// capacity, from one below to two above an even split of the total
// weight.
func decodeHeuristicsInput(t *testing.T, data []byte) heuristicsInput {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 2 + next()%12
	ns := 1 + next()%min(5, n-1)
	flags := next()
	maxMods := next() % 8
	m := latency.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := float64(next() % 5)
			m[i][j], m[j][i] = v, v
		}
	}
	servers := make([]int, ns)
	for k := range servers {
		servers[k] = k
	}
	first := ns
	if flags&1 != 0 {
		first = 0
	}
	clients := make([]int, 0, n)
	for v := first; v < n; v++ {
		clients = append(clients, v)
	}
	in, err := core.NewInstanceTrusted(m, servers, clients)
	if err != nil {
		t.Fatal(err)
	}
	hi := heuristicsInput{in: in, maxMods: maxMods}
	if flags&4 != 0 {
		hi.weights = make(Weights, len(clients))
		for i := range hi.weights {
			hi.weights[i] = 1 + next()%4
		}
	}
	if flags&2 != 0 {
		total := 0
		for i := range clients {
			total += hi.weights.of(i)
		}
		split := (total + ns - 1) / ns
		hi.caps = make(core.Capacities, ns)
		for k := range hi.caps {
			hi.caps[k] = split - 1 + next()%4
		}
	}
	if flags&8 != 0 {
		hi.initial = LongestFirstBatch{}
	}
	return hi
}

// FuzzHeuristicsDifferential checks greedyAssign under both cost rules,
// capacitated Longest-First-Batch and Distributed-Greedy against their
// references on fuzz-decoded instances (decodeHeuristicsInput): the
// same assignment, trace and error text. Integer latencies 0–4 make
// ties, zero spreads and zero distances common.
func FuzzHeuristicsDifferential(f *testing.F) {
	f.Add([]byte{7, 2, 0, 0})
	f.Add([]byte{9, 3, 1 | 2, 3, 1, 4, 0, 2, 2, 3, 1, 1, 0, 4})
	f.Add([]byte{12, 4, 2 | 4 | 8, 7, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		hi := decodeHeuristicsInput(t, data)
		checkGreedy(t, "Greedy", hi.in, hi.weights, hi.caps, true)
		checkGreedy(t, "Greedy-PlainDelta", hi.in, hi.weights, hi.caps, false)
		if hi.caps != nil {
			checkLFBCapacitated(t, "Longest-First-Batch", hi.in, hi.weights, hi.caps)
		}
		checkDG(t, "Distributed-Greedy", hi.in, hi.caps, hi.maxMods, hi.initial)
	})
}
