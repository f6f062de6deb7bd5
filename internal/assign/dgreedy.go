package assign

import (
	"fmt"
	"math"

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
// MaxInteractionPath. l(s″) excluding c is read after detaching c,
// which is reattached when no move wins. The sums are DG's own,
// d(c,s′) + d(s′,s″) + l(s″) and d(c,s) + far[s], not PeekJoin's
// lower-index-first order: another association can break an exact tie
// of L(s′) the other way, and package dgreedy's protocol, which is
// cross-checked against this type, sums in DG's order.
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
	far := make([]float64, ns)
	var critical []int

	// reach(c) = d(c, sA(c)) + far[sA(c)] is the length of the longest
	// interaction path involving c; c is on a longest path iff
	// reach(c) == D.
	for {
		improved := false
		collectUsed()
		for s := range far {
			far[s] = farthest(s)
		}

		// Snapshot of clients on longest paths.
		critical = critical[:0]
		for c := 0; c < nc; c++ {
			if s := ev.ServerOf(c); in.ClientServerDist(c, s)+far[s] >= d-eps {
				critical = append(critical, c)
			}
		}

		for _, c := range critical {
			// Re-check against the current assignment: an earlier move in
			// this sweep may have taken c off the longest paths.
			cur := ev.ServerOf(c)
			collectUsed()
			if in.ClientServerDist(c, cur)+farthest(cur) < d-eps {
				continue
			}

			// l(s'') excluding c: detach c, so that only its own server's
			// eccentricity changes.
			ev.Move(c, core.Unassigned)
			collectUsed()

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
				ev.Move(c, cur)
				continue // no move for this client improves its paths
			}

			// Reassign c to bestS.
			newD := ev.Move(c, bestS)
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
