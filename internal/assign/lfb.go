package assign

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"diacap/internal/core"
	"diacap/internal/perfkit"
)

// LongestFirstBatch is the paper's Longest-First-Batch Assignment
// (Section IV-B). It sorts clients by the distance to their nearest
// server; in each iteration the unassigned client c with the longest such
// distance is assigned to its nearest server s together with every
// unassigned client not farther from s than c. A client not assigned to
// its nearest server can never be the farthest client of its assigned
// server, so the longest interaction path connects two clients that are
// both on their nearest servers — hence D(LFB) ≤ D(Nearest-Server) and the
// 3-approximation carries over (and stays tight, Fig. 4).
//
// In the capacitated form (Section IV-E), if the batch would overload s,
// only the clients nearest to s are assigned, filling s exactly to
// capacity; the remainder, whose nearest server was s, recompute their
// nearest servers among the unsaturated ones, and the next round picks
// the longest distance again.
type LongestFirstBatch struct{}

// Name implements Algorithm.
func (LongestFirstBatch) Name() string { return "Longest-First-Batch" }

// Assign implements Algorithm.
func (LongestFirstBatch) Assign(in *core.Instance, caps core.Capacities) (core.Assignment, error) {
	return lfbAssign(in, nil, caps)
}

// lfbAssign is Longest-First-Batch's engine; nil weights count every
// client as 1. Weights only enter the capacitated form.
func lfbAssign(in *core.Instance, weights Weights, caps core.Capacities) (core.Assignment, error) {
	if err := validateWeights(in, weights, caps); err != nil {
		return nil, err
	}
	if caps == nil {
		return lfbUncapacitated(in), nil
	}
	return lfbCapacitated(in, weights, caps)
}

func lfbUncapacitated(in *core.Instance) core.Assignment {
	nc := in.NumClients()
	a := core.NewAssignment(nc)

	nearest := make([]int, nc)
	perfkit.NearestInto(in.FlatClientServer(), nearest)
	nearestDist := make([]float64, nc)
	for i, s := range nearest {
		nearestDist[i] = in.ClientServerDist(i, s)
	}
	// Clients in descending distance-to-nearest-server order.
	order := make([]int, nc)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		if c := cmp.Compare(nearestDist[order[x]], nearestDist[order[y]]); c != 0 {
			return c > 0
		}
		return order[x] < order[y]
	})

	for _, c := range order {
		if a[c] != core.Unassigned {
			continue
		}
		s := nearest[c]
		limit := nearestDist[c]
		// Batch-assign every unassigned client not farther from s than c.
		for j := 0; j < nc; j++ {
			if a[j] == core.Unassigned && in.ClientServerDist(j, s) <= limit+eps {
				a[j] = s
			}
		}
		a[c] = s
	}
	return a
}

// lfbCapacitated is the capacitated form of Section IV-E with weighted
// feasibility: a server is a candidate for a client only if its
// remaining capacity fits the client's weight, and batches fill
// nearest-first, skipping members too heavy for the remaining room.
// With unit weights (nil) the weighted rules reduce to the paper's: a
// fit is an unsaturated server, and a batch skips members only once it
// has filled its server to capacity.
//
// Every unassigned client's nearest fitting server is exact at the top
// of each round, so c always fits s. A round changes only s's load. If
// it skips no member, no unassigned client points at s, whether or not
// s is now full: such a client's nearest distance is at most c's, so it
// was in the batch and placed. Otherwise only the clients pointing at s
// are refreshed: a client pointing at t ≠ s still fits t, and no server
// nearer than t gained room, weights included. The first client a
// refresh of every client would find without a fit points at s, so the
// error names the same client.
func lfbCapacitated(in *core.Instance, weights Weights, caps core.Capacities) (core.Assignment, error) {
	nc, ns := in.NumClients(), in.NumServers()
	a := core.NewAssignment(nc)
	loads := make([]int, ns)
	remaining := nc

	// Nearest fitting server per unassigned client. Under weights,
	// feasibility is per-client (a weight-2 client may fit where a
	// weight-5 one does not), so a batch may skip a member before it
	// saturates its server.
	nearest := make([]int, nc)
	nearestDist := make([]float64, nc)
	// refresh re-derives the nearest fitting server of every unassigned
	// client pointing at s, or of every unassigned client for s = -1.
	refresh := func(s int) error {
		for i := 0; i < nc; i++ {
			if a[i] != core.Unassigned || (s != -1 && nearest[i] != s) {
				continue
			}
			row := in.ClientServerRow(i)
			best := nearestFit(row, loads, caps, weights.of(i))
			if best == -1 {
				if weights == nil {
					return fmt.Errorf("%w: all servers saturated with %d clients left", ErrInfeasible, remaining)
				}
				return fmt.Errorf("%w: no server fits client %d (weight %d) with %d clients left", ErrInfeasible, i, weights.of(i), remaining)
			}
			nearest[i], nearestDist[i] = best, row[best]
		}
		return nil
	}
	if err := refresh(-1); err != nil {
		return nil, err
	}

	batch := make([]distClient, 0, nc)
	for remaining > 0 {
		// Unassigned client with the longest distance to its nearest
		// fitting server.
		c := -1
		for i := 0; i < nc; i++ {
			if a[i] == core.Unassigned && (c == -1 || nearestDist[i] > nearestDist[c]) {
				c = i
			}
		}
		s, limit := nearest[c], nearestDist[c]

		// Candidate batch: unassigned clients not farther from s than c,
		// nearest first so a truncated batch fills s with its closest
		// clients.
		batch = batch[:0]
		for j := 0; j < nc; j++ {
			if d := in.ClientServerDist(j, s); a[j] == core.Unassigned && d <= limit+eps {
				batch = append(batch, distClient{d, j})
			}
		}
		slices.SortFunc(batch, compareDistClient)
		// Nearest-first fill, skipping members too heavy for the
		// remaining room (a skipped near client must not block farther,
		// lighter ones — in particular c itself, which fits whenever the
		// fill reaches it with the room untouched).
		skipped := false
		for _, e := range batch {
			w := weights.of(e.c)
			if loads[s]+w > caps[s] {
				skipped = true
				continue
			}
			a[e.c] = s
			loads[s] += w
			remaining--
		}
		if skipped {
			if err := refresh(s); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}
