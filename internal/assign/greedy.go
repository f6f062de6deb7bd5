package assign

import (
	"fmt"
	"math"

	"diacap/internal/core"
	"diacap/internal/obs"
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
//
// The same bound skips the walks of a zero-cost iteration. If the head
// of Ls[k] (its first unassigned client, fitting k's room) has Δl = 0
// and every earlier server's head has Δl/u > 0, no earlier server holds
// a pair of cost 0, so the scan would stop at that head: one pass over
// the heads finds it. A positive Δl so small that Δl/u underflows to 0
// leaves a deeper pair of cost 0 possible, and the scan runs.
//
// m[k] is kept across iterations rather than recomputed: Greedy never
// unassigns, so eccentricities only grow, and a batch changes only the
// chosen server's. IEEE addition is monotone, so the raised term
// d(k, s) + ecc[s] dominates the one it replaces, and folding it into
// m[k] gives the maximum over every server's term bit for bit.
func greedyAssign(in *core.Instance, weights Weights, caps core.Capacities, amortized bool, trace obs.AlgoTrace) (core.Assignment, error) {
	if err := validateWeights(in, weights, caps); err != nil {
		return nil, err
	}
	nc, ns := in.NumClients(), in.NumServers()
	a := core.NewAssignment(nc)

	// Ls for each server: all clients sorted by distance ascending, ties
	// by client index, each entry with its distance. The instance builds
	// them once and every Greedy run on it shares them, read-only.
	ls := in.ServerLists()
	// cursor[k]: every client of Ls[k] before it is assigned.
	cursor := make([]int, ns)
	// head returns the first unassigned entry of Ls[k] and moves the
	// cursor to it.
	head := func(k int) core.ClientDist {
		for a[ls[k][cursor[k]].C] != core.Unassigned {
			cursor[k]++
		}
		return ls[k][cursor[k]]
	}

	loads := make([]int, ns)
	ecc := make([]float64, ns) // max distance from server to its clients
	// m[k] = max_b∈C' {d(k, sA(b)) + d(sA(b), b)}, the max over servers t
	// with clients of d(k,t) + ecc[t]; -Inf when no client is assigned.
	m := make([]float64, ns)
	for k := range ecc {
		ecc[k] = -1
		m[k] = math.Inf(-1)
	}
	unassignedW := 0
	for i := 0; i < nc; i++ {
		unassignedW += weights.of(i)
	}
	// room returns k's remaining capacity, and bound(r) the u above for
	// a server with room r: no batch on it weighs more.
	room := func(k int) int {
		if caps == nil {
			return math.MaxInt
		}
		return caps[k] - loads[k]
	}
	bound := func(r int) float64 {
		if !amortized {
			return 1
		}
		return float64(min(r, unassignedW))
	}
	maxLen := 0.0
	remaining := nc
	step := 0

	for remaining > 0 {
		step++
		bestC, bestS, bestN := -1, -1, 0
		bestLen := 0.0
		// Stage 1a: a head with Δl = 0 ends the scan at its own pair.
		scan := true
		for k := 0; k < ns; k++ {
			r := room(k)
			if r <= 0 {
				continue
			}
			e := head(k)
			w := weights.of(e.C)
			if w > r {
				continue
			}
			l := pathLen(e.D, m[k], maxLen)
			dl := l - maxLen
			if dl == 0 {
				bestC, bestS, bestN, bestLen = e.C, k, w, l
				scan = false
				break
			}
			if !(dl/bound(r) > 0) {
				break // a deeper pair on k may cost 0
			}
		}
		// Stage 1b: find the (client, server) pair with minimum Δl/Δn.
		if scan {
			minCost := math.Inf(1)
		pairs:
			for k := 0; k < ns; k++ {
				r := room(k)
				if r <= 0 {
					continue
				}
				u := bound(r)
				head(k) // moves cursor[k] past the assigned prefix
				dn := 0 // Δn: weight of the unassigned clients passed so far
				for _, e := range ls[k][cursor[k]:] {
					c := e.C
					if a[c] != core.Unassigned {
						continue
					}
					dn += weights.of(c)
					if dn > r {
						// The batch ending at c cannot fit; prefix weights
						// only grow, so neither can any farther batch.
						break
					}
					l := pathLen(e.D, m[k], maxLen)
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
							break pairs
						}
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
		old := ecc[bestS]
		for _, e := range ls[bestS][cursor[bestS]:] {
			c := e.C
			if a[c] == core.Unassigned {
				a[c] = bestS
				w := weights.of(c)
				loads[bestS] += w
				unassignedW -= w
				remaining--
				if e.D > ecc[bestS] {
					ecc[bestS] = e.D
				}
			}
			if c == bestC {
				break
			}
		}
		if e := ecc[bestS]; e >= 0 && e > old {
			for k := range m {
				if v := in.ServerServerDist(k, bestS) + e; v > m[k] {
					m[k] = v
				}
			}
		}
	}
	return a, nil
}

// pathLen is the longest interaction path once a batch whose farthest
// member is d from its server joins: max(maxLen, 2d, d+m), where m is
// the server's m term and -Inf before any client is assigned.
func pathLen(d, m, maxLen float64) float64 {
	l := 2 * d
	if m > math.Inf(-1) {
		if v := d + m; v > l {
			l = v
		}
	}
	if maxLen > l {
		l = maxLen
	}
	return l
}
