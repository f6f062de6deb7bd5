package assign

import (
	"fmt"
	"math"
	"math/rand"

	"diacap/internal/core"
)

// SingleServer assigns every client to the one server minimizing the
// resulting maximum interaction-path length — the other extreme the paper
// discusses in Section III: it eliminates inter-server latency from every
// interaction path but may grossly inflate client-to-server latency. With
// all clients on server s, D = 2·max_c d(c, s), so the best choice is the
// 1-center of the clients among the servers. It fails on capacitated
// instances whose chosen server cannot hold every client.
type SingleServer struct{}

// Name implements Algorithm.
func (SingleServer) Name() string { return "Single-Server" }

// Assign implements Algorithm.
func (SingleServer) Assign(in *core.Instance, caps core.Capacities) (core.Assignment, error) {
	if err := validateInputs(in, caps); err != nil {
		return nil, err
	}
	nc, ns := in.NumClients(), in.NumServers()
	best, bestEcc := -1, math.Inf(1)
	for k := 0; k < ns; k++ {
		if caps != nil && caps[k] < nc {
			continue
		}
		ecc := 0.0
		for i := 0; i < nc; i++ {
			if d := in.ClientServerDist(i, k); d > ecc {
				ecc = d
			}
		}
		if ecc < bestEcc {
			best, bestEcc = k, ecc
		}
	}
	if best == -1 {
		return nil, fmt.Errorf("%w: no server can hold all %d clients", ErrInfeasible, nc)
	}
	a := make(core.Assignment, nc)
	for i := range a {
		a[i] = best
	}
	return a, nil
}

// RandomAssign assigns each client to a uniformly random server
// (uniformly random unsaturated server in the capacitated form). It is
// the sanity baseline: every serious algorithm should beat it.
type RandomAssign struct {
	// Seed drives the assignment; the zero value is a valid seed.
	Seed int64
}

// Name implements Algorithm.
func (RandomAssign) Name() string { return "Random" }

// Assign implements Algorithm.
func (r RandomAssign) Assign(in *core.Instance, caps core.Capacities) (core.Assignment, error) {
	return r.assign(in, nil, caps)
}

// assign is Random's engine; nil weights count every client as 1. Each
// capacitated client, in index order, takes a uniformly random server
// whose remaining capacity fits its weight — so under weights a later,
// lighter client can succeed where an earlier one could not.
func (r RandomAssign) assign(in *core.Instance, weights Weights, caps core.Capacities) (core.Assignment, error) {
	if err := validateWeights(in, weights, caps); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.Seed))
	nc, ns := in.NumClients(), in.NumServers()
	a := make(core.Assignment, nc)
	if caps == nil {
		for i := range a {
			a[i] = rng.Intn(ns)
		}
		return a, nil
	}
	loads := make([]int, ns)
	for i := range a {
		w := weights.of(i)
		open := 0
		for k := range loads {
			if loads[k]+w <= caps[k] {
				open++
			}
		}
		if open == 0 {
			if weights == nil {
				return nil, fmt.Errorf("%w: all servers saturated at client %d", ErrInfeasible, i)
			}
			return nil, fmt.Errorf("%w: no server fits client %d (weight %d)", ErrInfeasible, i, w)
		}
		pick := rng.Intn(open)
		for k := range loads {
			if loads[k]+w <= caps[k] {
				if pick == 0 {
					a[i] = k
					loads[k] += w
					break
				}
				pick--
			}
		}
	}
	return a, nil
}

// TwoPhase chains Greedy Assignment with Distributed-Greedy refinement:
// Greedy builds a strong global assignment, and the Distributed-Greedy
// local moves then shave the remaining critical paths. This is the
// natural combination the paper's Section IV invites (Distributed-Greedy
// accepts any initial assignment) and is never worse than Greedy alone.
type TwoPhase struct{}

// Name implements Algorithm.
func (TwoPhase) Name() string { return "Two-Phase" }

// Assign implements Algorithm.
func (TwoPhase) Assign(in *core.Instance, caps core.Capacities) (core.Assignment, error) {
	return DistributedGreedy{Initial: Greedy{}}.Assign(in, caps)
}

// LocalSearch is a best-improvement local search over single-client
// moves, built on the incremental core.Evaluator: in each round it scans
// every (client, server) move, applies the one yielding the lowest D, and
// stops when no move improves. Unlike Distributed-Greedy it is not
// restricted to clients on longest paths, so it can escape some of DG's
// fixed points at higher cost. MaxRounds bounds the work (0 = |C| rounds).
type LocalSearch struct {
	// Initial produces the starting assignment (nil = Nearest-Server).
	Initial Algorithm
	// MaxRounds bounds improvement rounds; 0 means |C|.
	MaxRounds int
}

// Name implements Algorithm.
func (LocalSearch) Name() string { return "Local-Search" }

// Assign implements Algorithm.
func (l LocalSearch) Assign(in *core.Instance, caps core.Capacities) (core.Assignment, error) {
	if err := validateInputs(in, caps); err != nil {
		return nil, err
	}
	initial := l.Initial
	if initial == nil {
		initial = NearestServer{}
	}
	a, err := initial.Assign(in, caps)
	if err != nil {
		return nil, fmt.Errorf("assign: initial assignment: %w", err)
	}
	ev, err := in.NewEvaluator(a)
	if err != nil {
		return nil, err
	}
	rounds := l.MaxRounds
	if rounds <= 0 {
		rounds = in.NumClients()
	}
	for round := 0; round < rounds; round++ {
		c, s, _ := BestMove(ev, caps)
		if c == -1 {
			break
		}
		ev.Move(c, s)
	}
	return ev.Assignment(), nil
}

// BestMove returns the single-client move (c to s) that lowers ev's D
// by more than eps, and the D it gives, or (-1, -1, ev.D()) when none
// does. Only clients on a longest path can lower D by moving, so only
// they are tried: each is detached once, every other server with room
// under caps is priced with ev.PeekJoin, and the client is put back.
// A candidate replaces the incumbent only when it beats it by more
// than eps, so ties go to the lowest client, then the lowest server.
// The evaluator's assignment and D are unchanged on return.
func BestMove(ev *core.Evaluator, caps core.Capacities) (c, s int, d float64) {
	in := ev.Instance()
	d0 := ev.D()
	c, s, d = -1, -1, d0
	for i := 0; i < in.NumClients(); i++ {
		cur := ev.ServerOf(i)
		if cur == core.Unassigned || ev.MaxPathInvolving(i) < d0-eps {
			continue
		}
		ev.Move(i, core.Unassigned)
		for k := 0; k < in.NumServers(); k++ {
			if k == cur || caps != nil && ev.Load(k) >= caps[k] {
				continue
			}
			if nd := ev.PeekJoin(i, k); nd < d-eps {
				c, s, d = i, k, nd
			}
		}
		ev.Move(i, cur)
	}
	return c, s, d
}
