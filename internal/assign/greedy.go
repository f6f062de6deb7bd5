package assign

import (
	"cmp"
	"fmt"
	"math"
	"sort"

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
	// ascending (ties by client index for determinism).
	ls := make([][]int, ns)
	row := make([]float64, nc)
	for k := 0; k < ns; k++ {
		list := make([]int, nc)
		for i := range list {
			list[i] = i
			row[i] = in.ClientServerDist(i, k)
		}
		sort.Slice(list, func(x, y int) bool {
			if c := cmp.Compare(row[list[x]], row[list[y]]); c != 0 {
				return c < 0
			}
			return list[x] < list[y]
		})
		ls[k] = list
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
			for a[list[cursor[k]]] != core.Unassigned {
				cursor[k]++
			}
			dn := 0 // Δn: weight of the unassigned clients passed so far
			for _, c := range list[cursor[k]:] {
				if a[c] != core.Unassigned {
					continue
				}
				dn += weights.of(c)
				if dn > room {
					// The batch ending at c cannot fit; prefix weights
					// only grow, so neither can any farther batch.
					break
				}
				d := in.ClientServerDist(c, k)
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
		for _, c := range ls[bestS][cursor[bestS]:] {
			if a[c] == core.Unassigned {
				a[c] = bestS
				w := weights.of(c)
				loads[bestS] += w
				unassignedW -= w
				remaining--
				if d := in.ClientServerDist(c, bestS); d > ecc[bestS] {
					ecc[bestS] = d
				}
			}
			if c == bestC {
				break
			}
		}
	}
	return a, nil
}
