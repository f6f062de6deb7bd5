// Package assign implements the client assignment algorithms of the paper
// (Section IV): Nearest-Server Assignment, Longest-First-Batch Assignment,
// Greedy Assignment, and Distributed-Greedy Assignment, each in both the
// uncapacitated and capacitated (Section IV-E) forms, plus an exact
// branch-and-bound solver used as an optimality oracle on small instances.
//
// All algorithms consume only the client-to-server and server-to-server
// latencies of a core.Instance — exactly the measurements the paper says
// can be collected with ping or King — and produce a core.Assignment
// minimizing (heuristically) the maximum interaction-path length D.
package assign

import (
	"errors"
	"fmt"

	"diacap/internal/core"
	"diacap/internal/obs"
	"diacap/internal/perfkit"
)

// eps absorbs floating-point noise in latency comparisons.
const eps = 1e-9

// ErrInfeasible is returned when a capacitated instance cannot be
// completed (e.g. total capacity below the client count).
var ErrInfeasible = errors.New("assign: infeasible instance")

// Algorithm is a client assignment algorithm. Assign must return a
// complete assignment respecting caps (nil caps means uncapacitated), or
// an error.
type Algorithm interface {
	// Name returns the paper's name for the algorithm.
	Name() string
	// Assign computes a complete assignment for the instance.
	Assign(in *core.Instance, caps core.Capacities) (core.Assignment, error)
}

// All returns the paper's four heuristics in presentation order:
// Nearest-Server, Longest-First-Batch, Greedy, Distributed-Greedy.
func All() []Algorithm {
	return []Algorithm{
		NearestServer{},
		LongestFirstBatch{},
		Greedy{},
		NewDistributedGreedy(),
	}
}

// ByName returns the algorithm with the given Name.
func ByName(name string) (Algorithm, error) {
	for _, a := range All() {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("assign: unknown algorithm %q", name)
}

// Extended returns every algorithm in the package — the paper's four
// plus the baselines and metaheuristics — with the randomized ones
// (Random, Anneal) driven by seed, so two calls with the same seed yield
// identical algorithm behavior.
func Extended(seed int64) []Algorithm {
	return append(All(),
		SingleServer{},
		RandomAssign{Seed: seed},
		TwoPhase{},
		LocalSearch{},
		MinAverage{},
		Anneal{Seed: seed},
	)
}

// ByNameSeeded resolves name over the Extended set, seeding randomized
// algorithms with seed. Names from All() resolve to the same algorithms
// ByName returns.
func ByNameSeeded(name string, seed int64) (Algorithm, error) {
	for _, a := range Extended(seed) {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("assign: unknown algorithm %q", name)
}

// WithTrace returns a copy of alg with its per-iteration trace hook set.
// Greedy, Distributed-Greedy, and Anneal support tracing; other
// algorithms are returned unchanged with traced == false. The hook is
// installed on the returned copy only, so shared algorithm values (e.g.
// the registry returned by All) are never mutated.
func WithTrace(alg Algorithm, t obs.AlgoTrace) (traced Algorithm, ok bool) {
	switch a := alg.(type) {
	case Greedy:
		a.Trace = t
		return a, true
	case DistributedGreedy:
		a.Trace = t
		return a, true
	case Anneal:
		a.Trace = t
		return a, true
	}
	return alg, false
}

// validateInputs runs the shared pre-flight checks.
func validateInputs(in *core.Instance, caps core.Capacities) error {
	if in == nil {
		return errors.New("assign: nil instance")
	}
	if err := in.ValidateCapacities(caps); err != nil {
		return fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	return nil
}

// NearestServer is the paper's Nearest-Server Assignment: every client
// connects to its lowest-latency server. Under shortest-path routing it is
// a 3-approximation (Theorem 2), and the ratio is tight (Fig. 4); on real
// latency data, which violates the triangle inequality, it can be far from
// optimal. In the capacitated form each client tries its servers in
// increasing latency order until one has room; clients are processed in
// index order.
type NearestServer struct{}

// Name implements Algorithm.
func (NearestServer) Name() string { return "Nearest-Server" }

// Assign implements Algorithm.
func (NearestServer) Assign(in *core.Instance, caps core.Capacities) (core.Assignment, error) {
	return nearestServerAssign(in, nil, caps)
}

// nearestServerAssign is Nearest-Server's engine; nil weights count
// every client as 1. A capacitated client takes nearestFit: the nearest
// server whose remaining capacity fits its weight.
func nearestServerAssign(in *core.Instance, weights Weights, caps core.Capacities) (core.Assignment, error) {
	if err := validateWeights(in, weights, caps); err != nil {
		return nil, err
	}
	nc, ns := in.NumClients(), in.NumServers()
	a := core.NewAssignment(nc)
	if caps == nil {
		// One argmin kernel pass over the flat client-server table;
		// same strict-< lower-index tie rule as the scalar scan.
		perfkit.NearestInto(in.FlatClientServer(), a)
		return a, nil
	}

	loads := make([]int, ns)
	for i := 0; i < nc; i++ {
		w := weights.of(i)
		best := nearestFit(in.ClientServerRow(i), loads, caps, w)
		if best == -1 {
			if weights == nil {
				return nil, fmt.Errorf("%w: no server has capacity for client %d", ErrInfeasible, i)
			}
			return nil, fmt.Errorf("%w: no server has capacity for client %d (weight %d)", ErrInfeasible, i, w)
		}
		a[i] = best
		loads[best] += w
	}
	return a, nil
}

// nearestFit returns the nearest server whose remaining capacity fits
// weight w — the argmin of row over the servers k with
// loads[k]+w ≤ caps[k], ties toward the lower index — or -1 when none
// fits. Capacitated Nearest-Server and Longest-First-Batch both pick
// their servers with it.
func nearestFit(row []float64, loads []int, caps core.Capacities, w int) int {
	loads, caps = loads[:len(row)], caps[:len(row)]
	best, bd := -1, 0.0
	for k, d := range row {
		if loads[k]+w <= caps[k] && (best == -1 || d < bd) {
			best, bd = k, d
		}
	}
	return best
}
