package core

import (
	"fmt"
	"math"
)

// Offsets captures the simulation-time offsets of Section II-C that make
// the constant execution lag δ = D feasible.
//
// All clients are mutually synchronized (Δ(c,c') = 0), and each server s
// runs ahead of every client by
//
//	Δ(s,c) = D − max over clients c' of (d(c', sA(c')) + d(sA(c'), s))
//
// i.e. D minus the longest distance from server s to any client through
// that client's assigned server. Server simulation times are generally not
// mutually synchronized.
type Offsets struct {
	// D is the maximum interaction-path length of the assignment the
	// offsets were computed for; also the minimum feasible lag δ.
	D float64
	// ServerAhead[k] is Δ(s_k, c): how far server k's simulation time runs
	// ahead of the (common) client simulation time.
	ServerAhead []float64
}

// ComputeOffsets derives the Section II-C offsets for a complete
// assignment. The returned offsets together with δ = D satisfy feasibility
// constraints (i) and (ii); see CheckFeasibility.
func (in *Instance) ComputeOffsets(a Assignment) (*Offsets, error) {
	if err := in.Validate(a); err != nil {
		return nil, err
	}
	return in.offsets(a, nil)
}

// ComputeOffsetsForServers derives the Section II-C offsets when only a
// subset of the instance's servers remains in the replication set — the
// situation after one or more servers fail and their clients are
// reassigned to survivors. The assignment must map every client onto an
// alive server. The returned D is the maximum interaction-path length of
// the assignment over the surviving set: the degraded minimum feasible
// lag δ. ServerAhead entries of servers outside alive are NaN; dead
// servers no longer execute operations, so no offset is defined for them.
func (in *Instance) ComputeOffsetsForServers(a Assignment, alive []int) (*Offsets, error) {
	if err := in.Validate(a); err != nil {
		return nil, err
	}
	ns := len(in.servers)
	if len(alive) == 0 {
		return nil, fmt.Errorf("%w: no alive servers", ErrInvalidInstance)
	}
	up := make([]bool, ns)
	for _, k := range alive {
		if k < 0 || k >= ns {
			return nil, fmt.Errorf("%w: alive server %d out of range [0,%d)", ErrInvalidInstance, k, ns)
		}
		if up[k] {
			return nil, fmt.Errorf("%w: duplicate alive server %d", ErrInvalidInstance, k)
		}
		up[k] = true
	}
	return in.offsets(a, up)
}

// offsets is the body of both offset derivations for a validated
// assignment; up marks the servers left in the replication set (nil =
// every server).
func (in *Instance) offsets(a Assignment, up []bool) (*Offsets, error) {
	if up != nil {
		for i, s := range a {
			if !up[s] {
				return nil, fmt.Errorf("%w: client %d assigned to dead server %d", ErrInvalidAssignment, i, s)
			}
		}
	}
	d := in.MaxInteractionPath(a)
	ns := len(in.servers)

	// reach[l] = max over clients c' of d(c', sA(c')) + d(sA(c'), s_l).
	// Group by assigned server: max over servers t of ecc(t) + d(t, s_l).
	ecc := in.Eccentricities(a)
	used := in.UsedServers(a)
	out := &Offsets{D: d, ServerAhead: make([]float64, ns)}
	for l := 0; l < ns; l++ {
		if up != nil && !up[l] {
			out.ServerAhead[l] = math.NaN()
			continue
		}
		reach := math.Inf(-1)
		for _, t := range used {
			if v := ecc[t] + in.ss[t][l]; v > reach {
				reach = v
			}
		}
		out.ServerAhead[l] = d - reach
	}
	return out, nil
}

// FeasibilityViolation describes one violated feasibility constraint.
type FeasibilityViolation struct {
	// Constraint is 1 for constraint (i) — an operation from Client would
	// reach Server after the server's simulation time passed t+δ — or 2
	// for constraint (ii) — the state update from the client's own server
	// would arrive after the client's simulation time passed t+δ.
	Constraint int
	Client     int     // instance-local client index
	Server     int     // instance-local server index
	Slack      float64 // positive amount by which the constraint is missed
}

func (v FeasibilityViolation) String() string {
	return fmt.Sprintf("constraint (%d) violated for client %d / server %d by %.6g ms",
		v.Constraint, v.Client, v.Server, v.Slack)
}

// CheckFeasibility verifies constraints (i) and (ii) of Section II-C for
// the given assignment, lag δ, and offsets:
//
//	(i)  ∀c,s: d(c, sA(c)) + d(sA(c), s) + Δ(s,c) ≤ δ
//	(ii) ∀c:   d(sA(c), c) + Δ(c, sA(c)) ≤ 0, with Δ(c,s) = −Δ(s,c)
//
// It returns all violations (empty when feasible). A small epsilon absorbs
// floating-point noise.
func (in *Instance) CheckFeasibility(a Assignment, delta float64, off *Offsets) []FeasibilityViolation {
	const eps = 1e-9
	var out []FeasibilityViolation
	for i, s := range a {
		if s == Unassigned {
			continue
		}
		dcs := in.cs[i][s]
		for l := range in.servers {
			lhs := dcs + in.ss[s][l] + off.ServerAhead[l]
			if lhs > delta+eps {
				out = append(out, FeasibilityViolation{
					Constraint: 1, Client: i, Server: l, Slack: lhs - delta,
				})
			}
		}
		// Constraint (ii): d(sA(c), c) − Δ(sA(c), c) ≤ 0.
		if lhs := dcs - off.ServerAhead[s]; lhs > eps {
			out = append(out, FeasibilityViolation{
				Constraint: 2, Client: i, Server: s, Slack: lhs,
			})
		}
	}
	return out
}

// InteractionTime returns the interaction time from client i to client j:
// the wall-clock duration from i issuing an operation until j sees its
// effect, given lag δ and offsets. Per Section II-C this equals
// δ + Δ(ci, cj); with mutually synchronized clients it is exactly δ for
// every ordered pair.
func (in *Instance) InteractionTime(delta float64, clientOffset func(i, j int) float64, i, j int) float64 {
	return delta + clientOffset(i, j)
}

// SynchronizedClients is the clientOffset function for the Section II-C
// setting where all client simulation times are synchronized.
func SynchronizedClients(i, j int) float64 { return 0 }
