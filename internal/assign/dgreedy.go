package assign

import (
	"fmt"
	"math"
	"slices"

	"diacap/internal/core"
	"diacap/internal/obs"
)

// DistributedGreedy is the paper's Distributed-Greedy Assignment
// (Section IV-D). Starting from an initial assignment (the paper uses
// Nearest-Server), it repeatedly examines clients involved in a longest
// interaction path. For such a client c currently on server s, every other
// server s' computes the maximum length of interaction paths involving c
// if c moved to it:
//
//	L(s') = max_{s''} { d(c, s') + d(s', s'') + l(s'') }
//
// where l(s”) is the longest distance from s” to its assigned clients
// excluding c. If min L(s') < D, c is reassigned to the minimizing server.
// Each modification can only keep or reduce D (paths not involving c are
// unchanged; new paths involving c are below the old D), and the algorithm
// terminates when examining every client on the longest path(s) yields no
// reduction.
//
// This type contains the protocol's decision logic run to convergence
// in-process; package dgreedy runs the same logic as an actual
// message-passing protocol over a simulated network and is cross-checked
// against this implementation.
//
// In the capacitated form, moves may only target unsaturated servers and
// the initial assignment is capacitated Nearest-Server.
type DistributedGreedy struct {
	// Initial produces the starting assignment. Nil means Nearest-Server,
	// as in the paper's experiments.
	Initial Algorithm
	// MaxModifications bounds the number of reassignments (0 = unlimited).
	// The paper's Fig. 9 plots interactivity after each modification; the
	// bound supports generating that curve.
	MaxModifications int
	// Trace, if non-nil, observes the run live: one obs.KindInit event
	// with the initial D, then one obs.KindMove event per reassignment
	// carrying the monotone non-increasing D trajectory (the Section IV-D
	// guarantee, asserted in tests).
	Trace obs.AlgoTrace
}

// NewDistributedGreedy returns the paper's configuration: Nearest-Server
// initial assignment, unlimited modifications.
func NewDistributedGreedy() DistributedGreedy { return DistributedGreedy{} }

// Name implements Algorithm.
func (DistributedGreedy) Name() string { return "Distributed-Greedy" }

// Assign implements Algorithm.
func (g DistributedGreedy) Assign(in *core.Instance, caps core.Capacities) (core.Assignment, error) {
	a, _, err := g.AssignWithTrace(in, caps)
	return a, err
}

// Trace records the optimization trajectory: D after the initial
// assignment and after every modification.
type Trace struct {
	// InitialD is the maximum interaction-path length of the initial
	// assignment.
	InitialD float64
	// DAfter[i] is D after the (i+1)-th assignment modification.
	DAfter []float64
	// Moves[i] identifies the client moved by the (i+1)-th modification.
	Moves []int
}

// Modifications returns the number of assignment modifications performed.
func (t *Trace) Modifications() int { return len(t.DAfter) }

// FinalD returns D after the last modification (or InitialD if none).
func (t *Trace) FinalD() float64 {
	if len(t.DAfter) == 0 {
		return t.InitialD
	}
	return t.DAfter[len(t.DAfter)-1]
}

// AssignWithTrace runs the algorithm and returns the final assignment
// together with the per-modification D trace used for Fig. 9.
//
// It runs on a core.Evaluator: D, eccentricities and loads come from
// the engine, and a move's D is what Move returns, bit-equal to
// MaxInteractionPath. l(s″) excluding c is the engine's eccentricity
// for every server but c's own, whose l is the largest distance to its
// other members: max is exact, so that is the eccentricity a detach of
// c would leave, and c's server drops out of the used servers when c is
// its only member. A losing candidate changes nothing. The sums are
// DG's own, d(c,s′) + d(s′,s″) + l(s″) and d(c,s) + far[s], not
// PeekJoin's lower-index-first order: another association can break an
// exact tie of L(s′) the other way, and package dgreedy's protocol,
// which is cross-checked against this type, sums in DG's order.
//
// far[s] is kept with the eccentricities it was computed from. After
// each winning move, a server t whose eccentricity changed raises
// far[s] to its new term d(s,t) + ecc(t) when that is larger, and s is
// rescanned only when t's old term equalled far[s] and its new one is
// lower or t is now unused. Max is order-free and every term is the
// same sum, so far is bit-identical to a full recompute, and the
// re-check of a critical client reads far[cur]. The critical snapshot
// tests only the clients of servers with ecc(s) + far[s] ≥ D − eps: a
// client on s is within ecc(s) of it and rounding is monotone. It reads
// each server's member list, which only a winning move changes, and is
// sorted by client index, the order a scan of every client yields.
func (g DistributedGreedy) AssignWithTrace(in *core.Instance, caps core.Capacities) (core.Assignment, *Trace, error) {
	if err := validateInputs(in, caps); err != nil {
		return nil, nil, err
	}
	initial := g.Initial
	if initial == nil {
		initial = NearestServer{}
	}
	a, err := initial.Assign(in, caps)
	if err != nil {
		return nil, nil, fmt.Errorf("assign: initial assignment: %w", err)
	}
	if err := in.Validate(a); err != nil {
		return nil, nil, fmt.Errorf("assign: initial assignment invalid: %w", err)
	}
	ev, err := in.NewEvaluator(a)
	if err != nil {
		return nil, nil, fmt.Errorf("assign: initial assignment invalid: %w", err)
	}

	nc, ns := in.NumClients(), in.NumServers()
	trace := &Trace{InitialD: ev.D()}
	d := trace.InitialD
	if g.Trace != nil {
		g.Trace(obs.AlgoEvent{
			Algorithm: g.Name(), Kind: obs.KindInit, Step: 0,
			D: trace.InitialD, Client: -1, Server: -1,
		})
	}

	// The used servers and their eccentricities, in server order.
	used := make([]int, 0, ns)
	usedEcc := make([]float64, 0, ns)
	collectUsed := func() {
		used, usedEcc = used[:0], usedEcc[:0]
		for t := 0; t < ns; t++ {
			if e := ev.Eccentricity(t); e >= 0 {
				used, usedEcc = append(used, t), append(usedEcc, e)
			}
		}
	}
	// farthest(s) = max_t (d(s,t) + ecc(t)) over the used servers t: the
	// longest path from s through the network.
	farthest := func(s int) float64 {
		row := in.ServerServerRow(s)
		best := math.Inf(-1)
		for i, t := range used {
			if v := row[t] + usedEcc[i]; v > best {
				best = v
			}
		}
		return best
	}
	// far[s] = farthest(s) under farEcc, the eccentricities it was last
	// brought up to date with. It starts as if no server were used, so
	// the first update folds in every used server's term.
	far := make([]float64, ns)
	farEcc := make([]float64, ns)
	stale := make([]bool, ns)
	for s := range far {
		far[s], farEcc[s] = math.Inf(-1), -1
	}
	// updateFar brings far up to date term by term: a raised term raises
	// far[s] to it, and only a lowered or removed term that far[s]
	// equalled (no term exceeds it) leaves s to rescan.
	updateFar := func() {
		rescan := false
		for t, oe := range farEcc {
			ne := ev.Eccentricity(t)
			if math.Float64bits(ne) == math.Float64bits(oe) {
				continue
			}
			farEcc[t] = ne
			for s := range far {
				dst := in.ServerServerDist(s, t)
				nt := dst + ne
				if ne >= 0 && nt > far[s] {
					far[s] = nt
				} else if oe >= 0 && dst+oe >= far[s] && !(ne >= 0 && nt >= far[s]) {
					stale[s], rescan = true, true
				}
			}
		}
		if !rescan {
			return
		}
		collectUsed()
		for s, st := range stale {
			if st {
				far[s], stale[s] = farthest(s), false
			}
		}
	}
	updateFar()
	// members[s] lists the clients on s in no order, and at[c] is c's
	// position in its server's list.
	members := make([][]int, ns)
	at := make([]int, nc)
	for c := 0; c < nc; c++ {
		s := ev.ServerOf(c)
		at[c] = len(members[s])
		members[s] = append(members[s], c)
	}
	var critical []int

	// reach(c) = d(c, sA(c)) + far[sA(c)] is the length of the longest
	// interaction path involving c; c is on a longest path iff
	// reach(c) == D.
	for {
		improved := false
		// Snapshot of clients on longest paths, in client order. Every
		// client on s is within ecc(s) of it, so a server with
		// ecc(s) + far[s] < D − eps holds none.
		critical = critical[:0]
		for s, list := range members {
			if ev.Eccentricity(s)+far[s] < d-eps {
				continue
			}
			for _, c := range list {
				if in.ClientServerDist(c, s)+far[s] >= d-eps {
					critical = append(critical, c)
				}
			}
		}
		slices.Sort(critical)

		for _, c := range critical {
			// Re-check against the current assignment: an earlier move in
			// this sweep may have taken c off the longest paths.
			cur := ev.ServerOf(c)
			if in.ClientServerDist(c, cur)+far[cur] < d-eps {
				continue
			}

			// l(s'') excluding c: only cur's eccentricity changes, to the
			// largest distance from cur to its other members, and cur
			// leaves the used servers when c is its only member.
			collectUsed()
			lcur := -1.0
			for _, j := range members[cur] {
				if d := in.ClientServerDist(j, cur); j != c && d > lcur {
					lcur = d
				}
			}
			p, _ := slices.BinarySearch(used, cur)
			if lcur >= 0 {
				usedEcc[p] = lcur
			} else {
				used, usedEcc = slices.Delete(used, p, p+1), slices.Delete(usedEcc, p, p+1)
			}

			// Evaluate L(s') for every candidate target server.
			bestS, bestL := -1, math.Inf(1)
			for sp := 0; sp < ns; sp++ {
				if sp == cur {
					continue
				}
				if caps != nil && ev.Load(sp) >= caps[sp] {
					continue
				}
				dcs := in.ClientServerDist(c, sp)
				row := in.ServerServerRow(sp)
				// Interaction path from c to itself; pairs between c and
				// the existing clients of sp fall out of the spp == sp
				// term of the loop below. L only grows along the loop, so
				// it stops once sp cannot win.
				l := 2 * dcs
				for i, spp := range used {
					if v := dcs + row[spp] + usedEcc[i]; v > l {
						l = v
						if l >= bestL {
							break
						}
					}
				}
				if l < bestL {
					bestL, bestS = l, sp
				}
			}
			if bestS == -1 || bestL >= d-eps {
				continue // no move for this client improves its paths
			}

			// Reassign c to bestS.
			newD := ev.Move(c, bestS)
			list := members[cur]
			last := list[len(list)-1]
			list[at[c]], at[last] = last, at[c]
			members[cur] = list[:len(list)-1]
			at[c] = len(members[bestS])
			members[bestS] = append(members[bestS], c)
			updateFar()
			trace.DAfter = append(trace.DAfter, newD)
			trace.Moves = append(trace.Moves, c)
			if g.Trace != nil {
				g.Trace(obs.AlgoEvent{
					Algorithm: g.Name(), Kind: obs.KindMove, Step: trace.Modifications(),
					D: newD, Client: c, Server: bestS,
				})
			}
			if newD < d-eps {
				improved = true
			}
			d = newD
			if g.MaxModifications > 0 && trace.Modifications() >= g.MaxModifications {
				return ev.Assignment(), trace, nil
			}
			if improved {
				break // restart with the new set of longest paths
			}
		}
		if !improved {
			return ev.Assignment(), trace, nil
		}
	}
}
