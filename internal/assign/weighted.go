package assign

import (
	"fmt"

	"diacap/internal/core"
)

// Weights gives each client an integral demand against server
// capacities. The scale pipeline (internal/scale) solves reduced
// instances whose "clients" are cluster cells: a cell aggregating m real
// clients consumes m units of capacity, so its weight is m. A nil
// Weights means every client weighs 1, recovering the paper's
// capacitated semantics exactly.
//
// Weights only affect capacity accounting — the objective D is a
// maximum over interaction paths and is untouched by how much capacity
// a client consumes — so the uncapacitated forms of every algorithm are
// already weight-correct, and each weighted entry point below runs its
// algorithm's one engine, whose feasibility checks read the weights.
type Weights []int

// of returns client i's weight (1 for nil Weights).
func (w Weights) of(i int) int {
	if w == nil {
		return 1
	}
	return w[i]
}

// validateWeights runs the weighted pre-flight checks: weights (when
// present) must align with the client count, be ≥ 1, and fit the total
// capacity.
func validateWeights(in *core.Instance, weights Weights, caps core.Capacities) error {
	if err := validateInputs(in, caps); err != nil {
		return err
	}
	if weights == nil {
		return nil
	}
	if len(weights) != in.NumClients() {
		return fmt.Errorf("%w: %d weights for %d clients", ErrInfeasible, len(weights), in.NumClients())
	}
	total := 0
	for i, v := range weights {
		if v < 1 {
			return fmt.Errorf("%w: client %d has weight %d, want >= 1", ErrInfeasible, i, v)
		}
		total += v
	}
	if caps != nil {
		capTotal := 0
		for _, c := range caps {
			capTotal += c
		}
		if capTotal < total {
			return fmt.Errorf("%w: total capacity %d < total weight %d", ErrInfeasible, capTotal, total)
		}
	}
	return nil
}

// CheckWeighted verifies that assignment a respects caps under weights:
// the weighted load of every server stays within its capacity.
func CheckWeighted(in *core.Instance, a core.Assignment, weights Weights, caps core.Capacities) error {
	if caps == nil {
		return nil
	}
	loads := make([]int, in.NumServers())
	for i, s := range a {
		if s != core.Unassigned {
			loads[s] += weights.of(i)
		}
	}
	for k, load := range loads {
		if load > caps[k] {
			return fmt.Errorf("%w: server %d carries weight %d, capacity %d", ErrInfeasible, k, load, caps[k])
		}
	}
	return nil
}

// WeightedAlgorithm is an assignment algorithm aware of client weights.
// Nearest-Server, Longest-First-Batch, Greedy and Random implement it;
// with nil weights each is its unweighted form.
type WeightedAlgorithm interface {
	Algorithm
	AssignWeighted(in *core.Instance, weights Weights, caps core.Capacities) (core.Assignment, error)
}

// AssignWeighted implements WeightedAlgorithm: each client, in index
// order, takes the nearest server whose remaining capacity fits its
// weight.
func (NearestServer) AssignWeighted(in *core.Instance, weights Weights, caps core.Capacities) (core.Assignment, error) {
	return nearestServerAssign(in, weights, caps)
}

// AssignWeighted implements WeightedAlgorithm: the capacitated
// Longest-First-Batch of Section IV-E with weighted feasibility (see
// lfbCapacitated).
func (LongestFirstBatch) AssignWeighted(in *core.Instance, weights Weights, caps core.Capacities) (core.Assignment, error) {
	return lfbAssign(in, weights, caps)
}

// AssignWeighted implements WeightedAlgorithm: each client, in index
// order, takes a uniformly random server whose remaining capacity fits
// its weight.
func (r RandomAssign) AssignWeighted(in *core.Instance, weights Weights, caps core.Capacities) (core.Assignment, error) {
	return r.assign(in, weights, caps)
}

// AssignWeighted implements WeightedAlgorithm: the paper's Greedy
// (Fig. 6) with Δn generalized to the total weight of the batch — the
// number of real clients the batch represents on a reduced instance —
// both in the amortized cost Δl/Δn and in the capacity check (candidate
// batches are the prefixes of Ls whose weight fits the remaining
// capacity).
func (g Greedy) AssignWeighted(in *core.Instance, weights Weights, caps core.Capacities) (core.Assignment, error) {
	return greedyAssign(in, weights, caps, true, g.Trace)
}
