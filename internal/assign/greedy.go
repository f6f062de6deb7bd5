package assign

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"diacap/internal/core"
	"diacap/internal/obs"
	"diacap/internal/perfkit"
)

// Greedy is the paper's Greedy Assignment (Section IV-C, pseudocode in
// Fig. 6). Starting from an empty assignment, each iteration considers
// every (unassigned client c, server s) pair; choosing the pair would
// assign to s the batch of all unassigned clients not farther from s than
// c. With Δn the batch size and Δl the resulting increase of the maximum
// interaction-path length, the pair minimizing the amortized cost Δl/Δn is
// selected. Per-server client lists sorted by distance (the paper's Ls)
// yield Δn as the running count of unassigned clients passed while
// walking Ls[s] (the paper's index[s,c]); the term
// max_b {d(s, sA(b)) + d(sA(b), b)} is shared across all unassigned
// clients of a server (the paper's m).
//
// In the capacitated form (Section IV-E) only unsaturated servers are
// considered and Δn reflects the remaining capacity: candidate batches are
// the prefixes of Ls that fit, so a selected batch fills the server at
// most exactly to capacity.
type Greedy struct {
	// Trace, if non-nil, observes every batch pick (obs.KindBatch) with
	// the chosen pair's Δl and Δn. A nil hook costs one comparison per
	// batch, outside the pair scan.
	Trace obs.AlgoTrace
}

// Name implements Algorithm.
func (Greedy) Name() string { return "Greedy" }

// Assign implements Algorithm.
func (g Greedy) Assign(in *core.Instance, caps core.Capacities) (core.Assignment, error) {
	return greedyAssign(in, nil, caps, true, g.Trace)
}

// GreedyPlainDelta is the ablation of Greedy's cost rule: it selects the
// (client, server) pair minimizing the raw increase Δl of the maximum
// interaction-path length instead of the amortized Δl/Δn. DESIGN.md's
// ablation study uses it to show why the amortized metric matters: plain
// Δl has no incentive to absorb many clients per step, degenerating
// toward one-client-at-a-time assignment with far more iterations and
// (often) worse final interactivity.
type GreedyPlainDelta struct{}

// Name implements Algorithm.
func (GreedyPlainDelta) Name() string { return "Greedy-PlainDelta" }

// Assign implements Algorithm.
func (GreedyPlainDelta) Assign(in *core.Instance, caps core.Capacities) (core.Assignment, error) {
	return greedyAssign(in, nil, caps, false, nil)
}

// greedyAssign is the shared engine; amortized selects the paper's Δl/Δn
// cost (true) or the ablation's plain Δl (false), and nil weights count
// every client as 1.
//
// Each iteration's pair scan stops as soon as the rest of it cannot win,
// which keeps the pick, its tie order and every trace event identical to
// a scan of every pair. Along Ls[k] the distance d never decreases, so
// neither does Δl = max(maxLen, 2d, d+m) − maxLen: IEEE addition and
// subtraction round monotonically. No later batch on k weighs more than
// u = min(room, unassigned weight), and IEEE division is monotone too, so
// every later pair on k costs at least Δl/u (Δl itself for the plain
// rule, u = 1). Once that reaches minCost, none of them can win the
// strict < and the walk leaves k. No cost is negative, so a pair of cost
// 0 ends the scan.
func greedyAssign(in *core.Instance, weights Weights, caps core.Capacities, amortized bool, trace obs.AlgoTrace) (core.Assignment, error) {
	if err := validateWeights(in, weights, caps); err != nil {
		return nil, err
	}
	nc, ns := in.NumClients(), in.NumServers()
	a := core.NewAssignment(nc)

	// Preprocessing: Ls for each server — all clients sorted by distance
	// ascending, ties by client index for determinism. Each server's
	// distances are read once, into a server-major row, and each entry
	// keeps its distance for the scans below.
	ls := make([][]distClient, ns)
	all := make([]distClient, ns*nc)
	row := make([]float64, nc)
	counts := make([]int, nc+1)
	for k := range ls {
		for i := range row {
			row[i] = in.ClientServerDist(i, k)
		}
		ls[k] = all[k*nc : (k+1)*nc]
		distanceOrder(row, ls[k], counts)
	}
	// cursor[k]: every client of Ls[k] before it is assigned.
	cursor := make([]int, ns)

	loads := make([]int, ns)
	ecc := make([]float64, ns) // max distance from server to its clients
	for k := range ecc {
		ecc[k] = -1
	}
	unassignedW := 0
	for i := 0; i < nc; i++ {
		unassignedW += weights.of(i)
	}
	maxLen := 0.0
	remaining := nc
	step := 0

	for remaining > 0 {
		step++
		// Stage 1: find the (client, server) pair with minimum Δl/Δn.
		minCost := math.Inf(1)
		bestC, bestS, bestN := -1, -1, 0
		bestLen := 0.0
	scan:
		for k := 0; k < ns; k++ {
			room := math.MaxInt
			if caps != nil {
				room = caps[k] - loads[k]
				if room <= 0 {
					continue
				}
			}
			u := 1.0
			if amortized {
				u = float64(min(room, unassignedW))
			}
			// m ← max_b∈C' {d(s, sA(b)) + d(sA(b), b)}, via per-server
			// eccentricities; -Inf when no client is assigned yet.
			m := perfkit.MaxPlusSkip(in.ServerServerRow(k), ecc)
			list := ls[k]
			for a[list[cursor[k]].c] != core.Unassigned {
				cursor[k]++
			}
			dn := 0 // Δn: weight of the unassigned clients passed so far
			for _, e := range list[cursor[k]:] {
				c, d := e.c, e.d
				if a[c] != core.Unassigned {
					continue
				}
				dn += weights.of(c)
				if dn > room {
					// The batch ending at c cannot fit; prefix weights
					// only grow, so neither can any farther batch.
					break
				}
				l := 2 * d
				if m > math.Inf(-1) {
					if v := d + m; v > l {
						l = v
					}
				}
				if maxLen > l {
					l = maxLen
				}
				dl := l - maxLen
				if dl/u >= minCost {
					break
				}
				cost := dl
				if amortized {
					cost /= float64(dn)
				}
				if cost < minCost {
					minCost = cost
					bestC, bestS, bestN = c, k, dn
					bestLen = l
					if cost == 0 {
						break scan
					}
				}
			}
		}
		if bestC == -1 {
			return nil, fmt.Errorf("%w: no (client, server) candidate with %d clients left", ErrInfeasible, remaining)
		}

		// Stage 2: assign the batch — every unassigned client of
		// Ls[bestS] up to and including bestC.
		if trace != nil {
			trace(obs.AlgoEvent{
				Algorithm: "Greedy", Kind: obs.KindBatch, Step: step,
				D: bestLen, DeltaL: bestLen - maxLen, DeltaN: bestN,
				Client: bestC, Server: bestS,
			})
		}
		maxLen = bestLen
		for _, e := range ls[bestS][cursor[bestS]:] {
			c := e.c
			if a[c] == core.Unassigned {
				a[c] = bestS
				w := weights.of(c)
				loads[bestS] += w
				unassignedW -= w
				remaining--
				if e.d > ecc[bestS] {
					ecc[bestS] = e.d
				}
			}
			if c == bestC {
				break
			}
		}
	}
	return a, nil
}

// distClient is one entry of a server's list Ls: a client and its
// distance to the server.
type distClient struct {
	d float64
	c int
}

// distanceOrder fills list with the clients 0..len(dist)-1 ordered by
// (dist[c], c) ascending, the order a comparison sort on that key
// yields, in distribution order: with lo and hi the extreme distances,
// client c drops, in index order, into bucket ⌊(dist[c] − lo)·s⌋ for
// s = (|C|−1)/(hi − lo), and each bucket is sorted on its own. IEEE
// subtraction, and multiplication by a positive constant, round
// monotonically, so a nearer client never lands in a later bucket and
// the concatenated buckets are the one (distance, index) order. A
// spread of zero, a spread that is not finite (min and max propagate
// NaN) and a spread so small that s overflows put every client in
// bucket 0 without evaluating the map, which leaves a plain comparison
// sort. counts is scratch of length len(dist)+1.
func distanceOrder(dist []float64, list []distClient, counts []int) {
	n := len(dist)
	lo, hi := dist[0], dist[0]
	for _, d := range dist {
		lo, hi = min(lo, d), max(hi, d)
	}
	spread := hi - lo
	scale := float64(n-1) / spread
	if !(spread > 0) || math.IsInf(spread, 1) || math.IsInf(scale, 1) {
		for c, d := range dist {
			list[c] = distClient{d, c}
		}
		slices.SortFunc(list, compareDistClient)
		return
	}
	bucket := func(d float64) int { return min(int((d-lo)*scale), n-1) }
	clear(counts)
	for _, d := range dist {
		counts[bucket(d)+1]++
	}
	for b := 1; b < len(counts); b++ {
		counts[b] += counts[b-1]
	}
	for c, d := range dist {
		b := bucket(d)
		list[counts[b]] = distClient{d, c}
		counts[b]++
	}
	// counts[b] is now the end of bucket b, and the start of b+1.
	start := 0
	for b := 0; b < n; b++ {
		if end := counts[b]; end-start > 1 {
			slices.SortFunc(list[start:end], compareDistClient)
		}
		start = counts[b]
	}
}

// compareDistClient orders Ls entries by (distance, client index).
func compareDistClient(x, y distClient) int {
	if c := cmp.Compare(x.d, y.d); c != 0 {
		return c
	}
	return cmp.Compare(x.c, y.c)
}
