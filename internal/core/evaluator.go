package core

import (
	"fmt"
	"math"
)

// Evaluator maintains the maximum interaction-path length D of an
// assignment under incremental client moves. Per-server eccentricities
// are backed by distance heaps and D by cached per-server best pair
// values (see incState), so a move costs O(log |C|) heap work plus
// O(U) amortized pair repairs for U used servers, against O(|C| + U²)
// for a from-scratch MaxInteractionPath — the difference matters for
// local-search algorithms that try thousands of moves and for control
// planes that apply one churn event at a time. PeekJoin prices a
// placement in closed form without mutating anything.
type Evaluator struct {
	in *Instance
	a  Assignment

	// loads[s] = number of clients on s.
	loads []int
	// ecc[s] = max distance from s to its clients (-1 when empty).
	ecc []float64
	// d = current maximum interaction-path length.
	d float64
	// inc maintains D incrementally: heap-backed eccentricities plus
	// cached pair maxima.
	inc *incState
	// stats counts the work performed, split by kind (see
	// EvaluatorStats).
	stats EvaluatorStats
	// deltaHook, when non-nil, observes every applied delta operation
	// (see SetDeltaHook). Kept a plain func field so core stays free of
	// observability dependencies; the cost when unset is one nil check
	// per Apply call.
	deltaHook func(DeltaEvent)
}

// NewEvaluator builds an evaluator over a copy of the assignment (the
// caller's slice is not retained). Partial assignments are allowed;
// unassigned clients contribute nothing until Assign-ed. Building the
// engine costs O(|C| log |C| + U²).
func (in *Instance) NewEvaluator(a Assignment) (*Evaluator, error) {
	if len(a) != in.NumClients() {
		return nil, fmt.Errorf("%w: length %d, want %d", ErrInvalidAssignment, len(a), in.NumClients())
	}
	for i, s := range a {
		if s != Unassigned && (s < 0 || s >= in.NumServers()) {
			return nil, fmt.Errorf("%w: client %d on server %d", ErrInvalidAssignment, i, s)
		}
	}
	ev := &Evaluator{
		in:    in,
		a:     a.Clone(),
		loads: in.Loads(a),
		ecc:   in.Eccentricities(a),
	}
	ev.inc = newIncState(ev)
	ev.d = ev.inc.currentD()
	return ev, nil
}

// Instance returns the instance this evaluator evaluates. Online
// strategies read geometry through it instead of caching their own
// instance pointer, so a caller may re-materialize the instance (e.g.
// after network coordinates drift) and hand the strategies a fresh
// evaluator without rebuilding the strategies themselves.
func (ev *Evaluator) Instance() *Instance { return ev.in }

// Assignment returns a copy of the current assignment.
func (ev *Evaluator) Assignment() Assignment { return ev.a.Clone() }

// ServerOf returns the current server of a client (or Unassigned).
func (ev *Evaluator) ServerOf(c int) int { return ev.a[c] }

// Load returns the number of clients on server s.
func (ev *Evaluator) Load(s int) int { return ev.loads[s] }

// Eccentricity returns the current eccentricity of server s (-1 if no
// clients).
func (ev *Evaluator) Eccentricity(s int) float64 { return ev.ecc[s] }

// D returns the current maximum interaction-path length.
func (ev *Evaluator) D() float64 { return ev.d }

// Move reassigns client c to server s (s may be Unassigned to remove the
// client) and returns the new D. Moving a client to its current server
// is a no-op that performs no repair work.
func (ev *Evaluator) Move(c, s int) float64 {
	if c < 0 || c >= len(ev.a) {
		panic(fmt.Sprintf("core: Move client %d out of range", c))
	}
	if s != Unassigned && (s < 0 || s >= ev.in.NumServers()) {
		panic(fmt.Sprintf("core: Move to server %d out of range", s))
	}
	return ev.moveIncremental(c, s)
}

// PeekJoin returns the D that placing the unassigned client c on server
// k would produce — bit-equal to what Move(c, k) then returns — without
// changing any state. It is the paper's Distributed-Greedy quantity in
// closed form: with dk = d(c,k), the placement raises ecc(k) to dk when
// dk exceeds it, so the new D is the max of the current D, c's path to
// itself (dk + d(k,k) + dk), and ecc(t) + d(t,k) + dk over the other
// used servers t. O(1) when dk ≤ ecc(k) (no pair changes), O(U)
// otherwise.
//
// Each term is summed in pairPath's lower-index-first order, the order
// perfkit.MaxPathEcc uses, so it is bit-identical to the pair value the
// engine would maintain after the move. Old pairs through k need no
// retraction: float64 addition is monotone, so the raised eccentricity
// dominates each of them, and max does not depend on order. Moving an
// assigned client is the same scan after one real detach
// (Move(c, Unassigned)); PeekJoin panics on an assigned client.
//
//dialint:hotpath
func (ev *Evaluator) PeekJoin(c, k int) float64 {
	if ev.a[c] != Unassigned {
		peekAssignedPanic(c, ev.a[c])
	}
	dk := ev.in.cs[c][k]
	if dk <= ev.ecc[k] {
		return ev.d
	}
	ss := ev.in.ss
	best := ev.d
	if v := dk + ss[k][k] + dk; v > best {
		best = v
	}
	for _, t := range ev.inc.used {
		var v float64
		switch {
		case t < k:
			v = ev.ecc[t] + ss[t][k] + dk
		case t > k:
			v = dk + ss[k][t] + ev.ecc[t]
		default:
			continue
		}
		if v > best {
			best = v
		}
	}
	return best
}

// peekAssignedPanic keeps the formatting off PeekJoin's hot path.
func peekAssignedPanic(c, s int) {
	panic(fmt.Sprintf("core: PeekJoin of client %d, already on server %d", c, s))
}

// MaxPathInvolving returns the length of the longest interaction path
// involving client c under the current assignment, or -1 if c is
// unassigned. Used to find clients on critical paths.
func (ev *Evaluator) MaxPathInvolving(c int) float64 {
	s := ev.a[c]
	if s == Unassigned {
		return -1
	}
	in := ev.in
	best := math.Inf(-1)
	for t := 0; t < in.NumServers(); t++ {
		if ev.ecc[t] < 0 {
			continue
		}
		if v := in.cs[c][s] + in.ss[s][t] + ev.ecc[t]; v > best {
			best = v
		}
	}
	return best
}
