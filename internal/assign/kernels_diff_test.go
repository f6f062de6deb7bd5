package assign

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"diacap/internal/core"
	"diacap/internal/latency"
	"diacap/internal/obs"
	"diacap/internal/placement"
)

// nearestServerScalar is the pre-perfkit scalar scan NearestServer
// shipped with, retained here as the differential reference for the
// kernel-backed path.
func nearestServerScalar(in *core.Instance) core.Assignment {
	nc, ns := in.NumClients(), in.NumServers()
	a := core.NewAssignment(nc)
	for i := 0; i < nc; i++ {
		row := in.ClientServerRow(i)
		best := 0
		for k := 1; k < ns; k++ {
			if row[k] < row[best] {
				best = k
			}
		}
		a[i] = best
	}
	return a
}

// TestNearestServerKernelDifferential checks the argmin kernel against
// the scalar reference on a synthetic instance and at full Meridian
// scale: assignments must be identical, including every tie-break.
func TestNearestServerKernelDifferential(t *testing.T) {
	instances := []*core.Instance{
		mustInstance(t, latency.ScaledLike(240, 5), 12),
	}
	if !testing.Short() {
		instances = append(instances, mustInstance(t, latency.MeridianLike(3), 80))
	}
	for _, in := range instances {
		want := nearestServerScalar(in)
		got, err := NearestServer{}.Assign(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d clients/%d servers: client %d assigned %d, reference %d",
					in.NumClients(), in.NumServers(), i, got[i], want[i])
			}
		}
	}
}

// TestGreedyKernelByteIdentical pins Greedy's kernel-backed batch scan
// across GOMAXPROCS settings: assignment and trace must be
// byte-identical whether the surrounding evaluators fan out or not.
func TestGreedyKernelByteIdentical(t *testing.T) {
	in := mustInstance(t, latency.ScaledLike(300, 11), 14)
	want := tracedRun(t, "Greedy", 1, in)
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		got := tracedRun(t, "Greedy", 1, in)
		runtime.GOMAXPROCS(prev)
		if got != want {
			t.Fatalf("GOMAXPROCS=%d: Greedy diverges:\n--- baseline\n%s--- got\n%s", procs, want, got)
		}
	}
}

// TestDistanceOrder pins distanceOrder to a comparison sort on
// (distance, index) for the spreads that must bypass the bucket map
// (zero, NaN, ±Inf, one so small that (n−1)/spread overflows) and for
// signed zeros, an outlier and random ties.
func TestDistanceOrder(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tiny := math.SmallestNonzeroFloat64
	cases := map[string][]float64{
		"one":        {3},
		"zero":       {7, 7, 7, 7},
		"nan":        {2, nan, 1, 2, nan, 0},
		"+inf":       {1, inf, 0, inf, 1},
		"-inf":       {1, -inf, 0, 2},
		"overflow":   {tiny, 0, tiny, 0, tiny},
		"signed 0":   {0, math.Copysign(0, -1), 1, 0, math.Copysign(0, -1)},
		"outlier":    {1, 2, 1, 3, 1000, 2, 4, 1},
		"negative":   {-3, 2, -3, 0.5, -1e-300, 1e-300},
		"two values": {5, 1, 5, 1},
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		d := make([]float64, 1+rng.Intn(60))
		for j := range d {
			d[j] = float64(rng.Intn(6)) * 0.1
		}
		cases[fmt.Sprintf("random %d", i)] = d
	}
	for name, dist := range cases {
		want := make([]int, len(dist))
		for i := range want {
			want[i] = i
		}
		sort.Slice(want, func(x, y int) bool {
			if c := cmp.Compare(dist[want[x]], dist[want[y]]); c != 0 {
				return c < 0
			}
			return want[x] < want[y]
		})
		list := make([]distClient, len(dist))
		distanceOrder(dist, list, make([]int, len(dist)+1))
		for p, e := range list {
			if e.c != want[p] || math.Float64bits(e.d) != math.Float64bits(dist[e.c]) {
				t.Fatalf("%s: position %d holds (%v, %d), want client %d", name, p, e.d, e.c, want[p])
			}
		}
	}
}

// greedyReference is the differential reference for greedyAssign: the
// paper's Fig. 6 loop scanning every (unassigned client, server) pair in
// every iteration, with Δn the running weight of the unassigned clients
// passed in Ls[s] (nil weights count every client as 1). It neither
// prunes the scan nor keeps a cursor; amortized selects Δl/Δn (true) or
// the plain-Δl ablation (false).
func greedyReference(in *core.Instance, weights Weights, caps core.Capacities, amortized bool, trace obs.AlgoTrace) (core.Assignment, error) {
	if err := validateWeights(in, weights, caps); err != nil {
		return nil, err
	}
	nc, ns := in.NumClients(), in.NumServers()
	a := core.NewAssignment(nc)

	// Ls per server: all clients sorted by distance ascending.
	ls := make([][]int, ns)
	for k := 0; k < ns; k++ {
		list := make([]int, nc)
		for i := range list {
			list[i] = i
		}
		sort.Slice(list, func(x, y int) bool {
			if c := cmp.Compare(in.ClientServerDist(list[x], k), in.ClientServerDist(list[y], k)); c != 0 {
				return c < 0
			}
			return list[x] < list[y]
		})
		ls[k] = list
	}

	loads := make([]int, ns)
	ecc := make([]float64, ns)
	for k := range ecc {
		ecc[k] = -1
	}
	maxLen := 0.0
	remaining := nc
	step := 0

	for remaining > 0 {
		step++
		minCost := math.Inf(1)
		bestC, bestS := -1, -1
		bestLen := 0.0
		for k := 0; k < ns; k++ {
			room := math.MaxInt
			if caps != nil {
				room = caps[k] - loads[k]
				if room <= 0 {
					continue
				}
			}
			m := math.Inf(-1)
			for t := 0; t < ns; t++ {
				if ecc[t] < 0 {
					continue
				}
				if v := in.ServerServerDist(k, t) + ecc[t]; v > m {
					m = v
				}
			}
			wsum := 0
			for _, c := range ls[k] {
				if a[c] != core.Unassigned {
					continue
				}
				wsum += weights.of(c)
				if wsum > room {
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
				cost := l - maxLen
				if amortized {
					cost /= float64(wsum)
				}
				if cost < minCost {
					minCost = cost
					bestC, bestS = c, k
					bestLen = l
				}
			}
		}
		if bestC == -1 {
			return nil, fmt.Errorf("%w: no (client, server) candidate with %d clients left", ErrInfeasible, remaining)
		}

		// Assign the batch: every unassigned client of Ls[bestS] up to
		// and including bestC.
		batchW := 0
		for _, c := range ls[bestS] {
			if a[c] == core.Unassigned {
				a[c] = bestS
				loads[bestS] += weights.of(c)
				batchW += weights.of(c)
				remaining--
				if d := in.ClientServerDist(c, bestS); d > ecc[bestS] {
					ecc[bestS] = d
				}
			}
			if c == bestC {
				break
			}
		}
		if trace != nil {
			trace(obs.AlgoEvent{
				Algorithm: "Greedy", Kind: obs.KindBatch, Step: step,
				D: bestLen, DeltaL: bestLen - maxLen, DeltaN: batchW,
				Client: bestC, Server: bestS,
			})
		}
		maxLen = bestLen
	}
	return a, nil
}

// nearestServerSorted is the differential reference for capacitated
// nearestServerAssign: every client sorts all servers by (distance,
// index) and takes the first whose remaining capacity fits its weight.
func nearestServerSorted(in *core.Instance, weights Weights, caps core.Capacities) (core.Assignment, error) {
	if err := validateWeights(in, weights, caps); err != nil {
		return nil, err
	}
	nc, ns := in.NumClients(), in.NumServers()
	a := core.NewAssignment(nc)
	loads := make([]int, ns)
	order := make([]int, ns)
	for i := 0; i < nc; i++ {
		row := in.ClientServerRow(i)
		for k := range order {
			order[k] = k
		}
		sort.Slice(order, func(x, y int) bool {
			if c := cmp.Compare(row[order[x]], row[order[y]]); c != 0 {
				return c < 0
			}
			return order[x] < order[y]
		})
		for _, k := range order {
			if loads[k]+weights.of(i) <= caps[k] {
				a[i] = k
				loads[k] += weights.of(i)
				break
			}
		}
		if a[i] == core.Unassigned {
			if weights == nil {
				return nil, fmt.Errorf("%w: no server has capacity for client %d", ErrInfeasible, i)
			}
			return nil, fmt.Errorf("%w: no server has capacity for client %d (weight %d)", ErrInfeasible, i, weights.of(i))
		}
	}
	return a, nil
}

// lfbReference is the differential reference for capacitated
// lfbAssign: the two engines Longest-First-Batch shipped before they
// were folded into one — lfbUnitReference for nil weights and
// lfbWeightedReference otherwise.
func lfbReference(in *core.Instance, weights Weights, caps core.Capacities) (core.Assignment, error) {
	if err := validateWeights(in, weights, caps); err != nil {
		return nil, err
	}
	if weights == nil {
		return lfbUnitReference(in, caps)
	}
	return lfbWeightedReference(in, weights, caps)
}

// lfbUnitReference is the unit-weight capacitated engine: nearest
// unsaturated servers, refreshed only when a batch saturates its
// server, and batches truncated to the room left.
func lfbUnitReference(in *core.Instance, caps core.Capacities) (core.Assignment, error) {
	nc, ns := in.NumClients(), in.NumServers()
	a := core.NewAssignment(nc)
	loads := make([]int, ns)
	remaining := nc
	nearest := make([]int, nc)
	nearestDist := make([]float64, nc)
	recompute := func() error {
		for i := 0; i < nc; i++ {
			if a[i] != core.Unassigned {
				continue
			}
			row := in.ClientServerRow(i)
			best := -1
			for k := 0; k < ns; k++ {
				if loads[k] >= caps[k] {
					continue
				}
				if best == -1 || row[k] < row[best] {
					best = k
				}
			}
			if best == -1 {
				return fmt.Errorf("%w: all servers saturated with %d clients left", ErrInfeasible, remaining)
			}
			nearest[i] = best
			nearestDist[i] = row[best]
		}
		return nil
	}
	if err := recompute(); err != nil {
		return nil, err
	}
	for remaining > 0 {
		c := -1
		for i := 0; i < nc; i++ {
			if a[i] != core.Unassigned {
				continue
			}
			if c == -1 || nearestDist[i] > nearestDist[c] {
				c = i
			}
		}
		s := nearest[c]
		limit := nearestDist[c]
		batch := lfbBatchReference(in, a, s, limit)
		room := caps[s] - loads[s]
		if room <= 0 {
			return nil, fmt.Errorf("%w: internal: picked saturated server %d", ErrInfeasible, s)
		}
		if len(batch) > room {
			batch = batch[:room]
		}
		for _, j := range batch {
			a[j] = s
			loads[s]++
			remaining--
		}
		if loads[s] >= caps[s] && remaining > 0 {
			if err := recompute(); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}

// lfbWeightedReference is the weighted capacitated engine: nearest
// servers whose room fits each client's weight, a refresh on a stale
// pick, and nearest-first fills that skip members too heavy for the
// room left.
func lfbWeightedReference(in *core.Instance, weights Weights, caps core.Capacities) (core.Assignment, error) {
	nc, ns := in.NumClients(), in.NumServers()
	a := core.NewAssignment(nc)
	loads := make([]int, ns)
	remaining := nc
	nearest := make([]int, nc)
	nearestDist := make([]float64, nc)
	recompute := func() error {
		for i := 0; i < nc; i++ {
			if a[i] != core.Unassigned {
				continue
			}
			row := in.ClientServerRow(i)
			best := -1
			for k := 0; k < ns; k++ {
				if loads[k]+weights.of(i) > caps[k] {
					continue
				}
				if best == -1 || row[k] < row[best] {
					best = k
				}
			}
			if best == -1 {
				return fmt.Errorf("%w: no server fits client %d (weight %d) with %d clients left", ErrInfeasible, i, weights.of(i), remaining)
			}
			nearest[i] = best
			nearestDist[i] = row[best]
		}
		return nil
	}
	if err := recompute(); err != nil {
		return nil, err
	}
	for remaining > 0 {
		c := -1
		for i := 0; i < nc; i++ {
			if a[i] != core.Unassigned {
				continue
			}
			if c == -1 || nearestDist[i] > nearestDist[c] {
				c = i
			}
		}
		s := nearest[c]
		if loads[s]+weights.of(c) > caps[s] {
			if err := recompute(); err != nil {
				return nil, err
			}
			continue
		}
		skipped := false
		for _, j := range lfbBatchReference(in, a, s, nearestDist[c]) {
			if loads[s]+weights.of(j) > caps[s] {
				skipped = true
				continue
			}
			a[j] = s
			loads[s] += weights.of(j)
			remaining--
		}
		if remaining > 0 && (skipped || loads[s] >= caps[s]) {
			if err := recompute(); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}

// lfbBatchReference returns the unassigned clients not farther from s
// than limit, sorted by (distance to s, index).
func lfbBatchReference(in *core.Instance, a core.Assignment, s int, limit float64) []int {
	var batch []int
	for j := range a {
		if a[j] == core.Unassigned && in.ClientServerDist(j, s) <= limit+eps {
			batch = append(batch, j)
		}
	}
	sort.Slice(batch, func(x, y int) bool {
		dx, dy := in.ClientServerDist(batch[x], s), in.ClientServerDist(batch[y], s)
		if c := cmp.Compare(dx, dy); c != 0 {
			return c < 0
		}
		return batch[x] < batch[y]
	})
	return batch
}

// randomReference is the differential reference for RandomAssign: the
// two loops Random shipped before they were folded into one,
// randomUnitReference for nil weights and randomWeightedReference
// otherwise.
func randomReference(in *core.Instance, weights Weights, caps core.Capacities, seed int64) (core.Assignment, error) {
	if err := validateWeights(in, weights, caps); err != nil {
		return nil, err
	}
	if caps == nil || weights == nil {
		return randomUnitReference(in, caps, seed)
	}
	return randomWeightedReference(in, weights, caps, seed)
}

// randomUnitReference draws each client's server uniformly, from the
// unsaturated servers when capacitated.
func randomUnitReference(in *core.Instance, caps core.Capacities, seed int64) (core.Assignment, error) {
	rng := rand.New(rand.NewSource(seed))
	nc, ns := in.NumClients(), in.NumServers()
	a := make(core.Assignment, nc)
	loads := make([]int, ns)
	for i := 0; i < nc; i++ {
		if caps == nil {
			a[i] = rng.Intn(ns)
			continue
		}
		open := 0
		for k := 0; k < ns; k++ {
			if loads[k] < caps[k] {
				open++
			}
		}
		if open == 0 {
			return nil, fmt.Errorf("%w: all servers saturated at client %d", ErrInfeasible, i)
		}
		pick := rng.Intn(open)
		for k := 0; k < ns; k++ {
			if loads[k] < caps[k] {
				if pick == 0 {
					a[i] = k
					loads[k]++
					break
				}
				pick--
			}
		}
	}
	return a, nil
}

// randomWeightedReference draws each client's server uniformly from the
// servers whose remaining capacity fits its weight.
func randomWeightedReference(in *core.Instance, weights Weights, caps core.Capacities, seed int64) (core.Assignment, error) {
	rng := rand.New(rand.NewSource(seed))
	nc, ns := in.NumClients(), in.NumServers()
	a := make(core.Assignment, nc)
	loads := make([]int, ns)
	for i := 0; i < nc; i++ {
		open := 0
		for k := 0; k < ns; k++ {
			if loads[k]+weights.of(i) <= caps[k] {
				open++
			}
		}
		if open == 0 {
			return nil, fmt.Errorf("%w: no server fits client %d (weight %d)", ErrInfeasible, i, weights.of(i))
		}
		pick := rng.Intn(open)
		for k := 0; k < ns; k++ {
			if loads[k]+weights.of(i) <= caps[k] {
				if pick == 0 {
					a[i] = k
					loads[k] += weights.of(i)
					break
				}
				pick--
			}
		}
	}
	return a, nil
}

// dgReference is the differential reference for
// DistributedGreedy.AssignWithTrace: the from-scratch loop DG shipped
// before it ran on the evaluator. It rebuilds the eccentricities, the
// used servers and the excluded eccentricity for every critical client,
// and a full MaxInteractionPath after every move.
func dgReference(g DistributedGreedy, in *core.Instance, caps core.Capacities) (core.Assignment, *Trace, error) {
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

	nc, ns := in.NumClients(), in.NumServers()
	loads := in.Loads(a)
	trace := &Trace{InitialD: in.MaxInteractionPath(a)}
	d := trace.InitialD
	if g.Trace != nil {
		g.Trace(obs.AlgoEvent{
			Algorithm: g.Name(), Kind: obs.KindInit, Step: 0,
			D: trace.InitialD, Client: -1, Server: -1,
		})
	}

	// reach(c) = d(c, sA(c)) + max_t (d(sA(c), t) + ecc(t)) is the length
	// of the longest interaction path involving c; c is on a longest path
	// iff reach(c) == D.
	for {
		improved := false
		ecc := in.Eccentricities(a)
		used := in.UsedServers(a)

		// Longest path length from each used server through the network:
		// far[s] = max_t (d(s,t) + ecc(t)).
		far := make([]float64, ns)
		for s := 0; s < ns; s++ {
			far[s] = math.Inf(-1)
			for _, t := range used {
				if v := in.ServerServerDist(s, t) + ecc[t]; v > far[s] {
					far[s] = v
				}
			}
		}

		// Snapshot of clients on longest paths.
		var critical []int
		for c := 0; c < nc; c++ {
			if in.ClientServerDist(c, a[c])+far[a[c]] >= d-eps {
				critical = append(critical, c)
			}
		}

		for _, c := range critical {
			// Re-check against the current assignment: an earlier move in
			// this sweep may have taken c off the longest paths.
			ecc = in.Eccentricities(a)
			used = in.UsedServers(a)
			cur := a[c]
			curFar := math.Inf(-1)
			for _, t := range used {
				if v := in.ServerServerDist(cur, t) + ecc[t]; v > curFar {
					curFar = v
				}
			}
			if in.ClientServerDist(c, cur)+curFar < d-eps {
				continue
			}

			// l(s'') excluding c: recompute the eccentricity of c's own
			// server without c; other servers are unaffected.
			lexcl := append([]float64(nil), ecc...)
			lexcl[cur] = -1
			for j := 0; j < nc; j++ {
				if j != c && a[j] == cur {
					if v := in.ClientServerDist(j, cur); v > lexcl[cur] {
						lexcl[cur] = v
					}
				}
			}

			// Evaluate L(s') for every candidate target server.
			bestS, bestL := -1, math.Inf(1)
			for sp := 0; sp < ns; sp++ {
				if sp == cur {
					continue
				}
				if caps != nil && loads[sp] >= caps[sp] {
					continue
				}
				dcs := in.ClientServerDist(c, sp)
				// Interaction path from c to itself; pairs between c and
				// the existing clients of sp fall out of the spp == sp
				// term of the loop below.
				l := 2 * dcs
				for spp := 0; spp < ns; spp++ {
					e := lexcl[spp]
					if e < 0 {
						continue
					}
					if v := dcs + in.ServerServerDist(sp, spp) + e; v > l {
						l = v
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
			loads[cur]--
			loads[bestS]++
			a[c] = bestS
			newD := in.MaxInteractionPath(a)
			trace.DAfter = append(trace.DAfter, newD)
			trace.Moves = append(trace.Moves, c)
			if g.Trace != nil {
				g.Trace(obs.AlgoEvent{
					Algorithm: g.Name(), Kind: obs.KindMove, Step: trace.Modifications(),
					D: newD, Client: c, Server: bestS,
				})
			}
			if newD < d-eps {
				d = newD
				improved = true
			} else {
				d = newD
			}
			if g.MaxModifications > 0 && trace.Modifications() >= g.MaxModifications {
				return a, trace, nil
			}
			if improved {
				break // restart with the new set of longest paths
			}
		}
		if !improved {
			return a, trace, nil
		}
	}
}

// diffCase is one differential input: an instance with client weights
// (nil for unit weights) and capacities (nil for uncapacitated).
type diffCase struct {
	name    string
	in      *core.Instance
	weights Weights
	caps    core.Capacities
}

// differentialCases draws seeded random instances, alternating
// tie-heavy integer latencies with real-valued ones, and crosses each
// with nil, all-ones and 1–4 weights and with no capacities, uniform
// ones from exact fit to +2 slack, or a total one unit short of the
// total weight. Three edge shapes of Greedy's distribution order get
// the same crossing (see edgeInstances). Outside -short it adds
// Meridian(1) with 80 K-center-B servers, uncapacitated and at
// ⌈1.2·|C|/|S|⌉.
func differentialCases(t *testing.T) []diffCase {
	t.Helper()
	rng := rand.New(rand.NewSource(29))
	trials := 300
	if testing.Short() {
		trials = 30
	}
	var cases []diffCase
	cross := func(label string, in *core.Instance) {
		nc, ns := in.NumClients(), in.NumServers()
		weighted := make(Weights, nc)
		ones := make(Weights, nc)
		for i := range weighted {
			weighted[i] = 1 + rng.Intn(4)
			ones[i] = 1
		}
		for _, w := range []struct {
			label   string
			weights Weights
		}{{"unit", nil}, {"all-ones", ones}, {"1-4", weighted}} {
			weights := w.weights
			total := 0
			for i := 0; i < nc; i++ {
				total += weights.of(i)
			}
			name := fmt.Sprintf("%s, %d clients, %d servers, %s weights)", label, nc, ns, w.label)
			cases = append(cases, diffCase{name + " uncapacitated", in, weights, nil})
			for slack := 0; slack <= 2; slack++ {
				caps := core.UniformCapacities(ns, (total+ns-1)/ns+slack)
				cases = append(cases, diffCase{fmt.Sprintf("%s slack %d", name, slack), in, weights, caps})
			}
			// One unit short of the total weight.
			short := core.UniformCapacities(ns, (total-1)/ns)
			for k := 0; k < (total-1)%ns; k++ {
				short[k]++
			}
			cases = append(cases, diffCase{name + " infeasible total", in, weights, short})
		}
	}
	for trial := 0; trial < trials; trial++ {
		n := 7 + rng.Intn(34)
		ns := 1 + rng.Intn(6)
		var m latency.Matrix
		kind := "real"
		if trial%2 == 0 {
			kind = "int"
			m = latency.NewMatrix(n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					v := float64(1 + rng.Intn(4))
					m[i][j], m[j][i] = v, v
				}
			}
		} else {
			m = latency.ScaledLike(n, int64(trial))
		}
		perm := rng.Perm(n)
		in, err := core.NewInstanceTrusted(m, perm[:ns], perm[ns:])
		if err != nil {
			t.Fatal(err)
		}
		cross(fmt.Sprintf("trial %d (%s", trial, kind), in)
	}
	for _, e := range edgeInstances(t) {
		cross(e.name+" (edge", e.in)
	}
	if !testing.Short() {
		m := latency.MeridianLike(1)
		servers, err := placement.PlaceKCenterB(m, 80)
		if err != nil {
			t.Fatal(err)
		}
		clients := make([]int, m.Len())
		for i := range clients {
			clients[i] = i
		}
		in, err := core.NewInstanceTrusted(m, servers, clients)
		if err != nil {
			t.Fatal(err)
		}
		caps := core.UniformCapacities(80, int(math.Ceil(1.2*float64(len(clients))/80)))
		cases = append(cases, diffCase{"Meridian(1) uncapacitated", in, nil, nil}, diffCase{"Meridian(1) capacitated", in, nil, caps})
	}
	return cases
}

// edgeInstance is one named instance of edgeInstances.
type edgeInstance struct {
	name string
	in   *core.Instance
}

// edgeInstances returns the shapes at the edges of Greedy's
// distribution order (distanceOrder), at two sizes each:
//   - equidistant: every latency is 7, so every client-server distance
//     is equal and a server's spread is zero;
//   - outlier: 1–4 integer latencies but one client 1000 away from
//     every node, so all other clients land in one bucket;
//   - overlap: the clients include the server nodes, so some
//     client-server distances are zero.
func edgeInstances(t *testing.T) []edgeInstance {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	intMatrix := func(n int) latency.Matrix {
		m := latency.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := float64(1 + rng.Intn(4))
				m[i][j], m[j][i] = v, v
			}
		}
		return m
	}
	nodes := func(from, to int) []int {
		out := make([]int, 0, to-from)
		for v := from; v < to; v++ {
			out = append(out, v)
		}
		return out
	}
	var out []edgeInstance
	add := func(name string, m latency.Matrix, servers, clients []int) {
		in, err := core.NewInstanceTrusted(m, servers, clients)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, edgeInstance{name, in})
	}
	for _, size := range []struct{ n, ns int }{{9, 2}, {36, 5}} {
		n, ns := size.n, size.ns
		eq := latency.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					eq[i][j] = 7
				}
			}
		}
		add("equidistant", eq, nodes(0, ns), nodes(ns, n))

		far := intMatrix(n)
		for v := 0; v < n-1; v++ {
			far[v][n-1], far[n-1][v] = 1000, 1000
		}
		add("outlier", far, nodes(0, ns), nodes(ns, n))

		add("overlap", intMatrix(n), nodes(0, ns), nodes(0, n))
		add("overlap real", latency.ScaledLike(n, int64(n)), nodes(0, ns), nodes(0, n))
	}
	return out
}

// errText renders an error for comparison; "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestGreedyDifferential pins the pruned, cursor-driven Greedy engine
// to greedyReference under both cost rules: the same assignment, the
// same trace events and the same error text on every case.
func TestGreedyDifferential(t *testing.T) {
	for _, tc := range differentialCases(t) {
		for _, amortized := range []bool{true, false} {
			checkGreedy(t, fmt.Sprintf("%s, amortized %t", tc.name, amortized), tc.in, tc.weights, tc.caps, amortized)
		}
	}
}

// checkGreedy runs greedyAssign and greedyReference on the same input
// and fails on any difference in the assignment, the trace events or
// the error text.
func checkGreedy(t *testing.T, where string, in *core.Instance, weights Weights, caps core.Capacities, amortized bool) {
	t.Helper()
	var want, got []obs.AlgoEvent
	wantA, wantErr := greedyReference(in, weights, caps, amortized, obs.Collect(&want))
	gotA, gotErr := greedyAssign(in, weights, caps, amortized, obs.Collect(&got))
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%s: error %q, reference %q", where, errText(gotErr), errText(wantErr))
	}
	if !reflect.DeepEqual(gotA, wantA) {
		t.Fatalf("%s: assignment diverges\ngot       %v\nreference %v", where, gotA, wantA)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: trace diverges\ngot       %+v\nreference %+v", where, got, want)
	}
}

// TestDGDifferential pins Distributed-Greedy on the evaluator to
// dgReference on every unit-weight case, uncapacitated and capacitated,
// with MaxModifications 0, 1 and 7 and with the Nearest-Server and
// Longest-First-Batch initial assignments: the same assignment, the
// same Trace, the same obs.AlgoTrace events and the same error text.
func TestDGDifferential(t *testing.T) {
	for _, tc := range differentialCases(t) {
		if tc.weights != nil {
			continue
		}
		for _, maxMods := range []int{0, 1, 7} {
			for _, initial := range []Algorithm{nil, LongestFirstBatch{}} {
				checkDG(t, fmt.Sprintf("%s, MaxModifications %d, initial %T", tc.name, maxMods, initial), tc.in, tc.caps, maxMods, initial)
			}
		}
	}
	in, start := dgSumOrderInstance(t)
	checkDG(t, "sum order", in, nil, 0, start)
}

// fixedAssignment is an Algorithm that returns a given assignment, so a
// test can start Distributed-Greedy where no heuristic would.
type fixedAssignment core.Assignment

// Name implements Algorithm.
func (fixedAssignment) Name() string { return "fixed" }

// Assign implements Algorithm.
func (f fixedAssignment) Assign(*core.Instance, core.Capacities) (core.Assignment, error) {
	return core.Assignment(f).Clone(), nil
}

// dgSumOrderInstance returns an instance on which DG's sum order
// decides the argmin, and the start that reaches it. Servers 0, 1, 2;
// client c (node 3) starts on server 0 at 0.7 beside a client 0.1 away,
// so D = 1.4 and c is critical. In DG's order c + s′ + l(s″),
// L(1) = 0.3 + 0.2 + 0.1 = 0.6 ties L(2) = 2·0.3, so c moves to server
// 1. In PeekJoin's lower-index-first order L(1) is
// 0.1 + 0.2 + 0.3 = 0.6000000000000001 and c would move to server 2.
func dgSumOrderInstance(t *testing.T) (*core.Instance, Algorithm) {
	t.Helper()
	m := latency.Matrix{
		{0, 0.2, 0.1, 0.7, 0.1},
		{0.2, 0, 0.2, 0.3, 0.3},
		{0.1, 0.2, 0, 0.3, 0.3},
		{0.7, 0.3, 0.3, 0, 0.5},
		{0.1, 0.3, 0.3, 0.5, 0},
	}
	in, err := core.NewInstanceTrusted(m, []int{0, 1, 2}, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	return in, fixedAssignment{0, 0}
}

// checkDG runs DistributedGreedy and dgReference with the same
// configuration and fails on any difference in the assignment, the
// Trace, the trace events or the error text.
func checkDG(t *testing.T, where string, in *core.Instance, caps core.Capacities, maxMods int, initial Algorithm) {
	t.Helper()
	var want, got []obs.AlgoEvent
	ref := DistributedGreedy{Initial: initial, MaxModifications: maxMods, Trace: obs.Collect(&want)}
	wantA, wantTr, wantErr := dgReference(ref, in, caps)
	dg := DistributedGreedy{Initial: initial, MaxModifications: maxMods, Trace: obs.Collect(&got)}
	gotA, gotTr, gotErr := dg.AssignWithTrace(in, caps)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%s: error %q, reference %q", where, errText(gotErr), errText(wantErr))
	}
	if !reflect.DeepEqual(gotA, wantA) {
		t.Fatalf("%s: assignment diverges\ngot       %v\nreference %v", where, gotA, wantA)
	}
	if !reflect.DeepEqual(gotTr, wantTr) {
		t.Fatalf("%s: Trace diverges\ngot       %+v\nreference %+v", where, gotTr, wantTr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: trace events diverge\ngot       %+v\nreference %+v", where, got, want)
	}
}

// TestNearestServerCapacitatedDifferential pins the capacitated
// Nearest-Server argmin to nearestServerSorted: the same assignment
// and the same error text on every capacitated case.
func TestNearestServerCapacitatedDifferential(t *testing.T) {
	for _, tc := range differentialCases(t) {
		if tc.caps == nil {
			continue
		}
		want, wantErr := nearestServerSorted(tc.in, tc.weights, tc.caps)
		got, gotErr := nearestServerAssign(tc.in, tc.weights, tc.caps)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%s: error %q, reference %q", tc.name, errText(gotErr), errText(wantErr))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: assignment diverges\ngot       %v\nreference %v", tc.name, got, want)
		}
	}
}

// TestLFBCapacitatedDifferential pins the folded capacitated
// Longest-First-Batch engine to lfbReference: the same assignment and
// the same error text on every capacitated case, through both the unit
// and the weighted entry point.
func TestLFBCapacitatedDifferential(t *testing.T) {
	for _, tc := range differentialCases(t) {
		if tc.caps != nil {
			checkLFBCapacitated(t, tc.name, tc.in, tc.weights, tc.caps)
		}
	}
}

// checkLFBCapacitated runs capacitated Longest-First-Batch, through
// Assign for unit weights and AssignWeighted otherwise, and
// lfbReference on the same input, and fails on any difference in the
// assignment or the error text.
func checkLFBCapacitated(t *testing.T, where string, in *core.Instance, weights Weights, caps core.Capacities) {
	t.Helper()
	want, wantErr := lfbReference(in, weights, caps)
	got, gotErr := LongestFirstBatch{}.AssignWeighted(in, weights, caps)
	if weights == nil {
		got, gotErr = LongestFirstBatch{}.Assign(in, caps)
	}
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%s: error %q, reference %q", where, errText(gotErr), errText(wantErr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: assignment diverges\ngot       %v\nreference %v", where, got, want)
	}
}

// TestRandomDifferential pins the folded Random engine to
// randomReference over three seeds: the same assignment and the same
// error text on every case, uncapacitated included.
func TestRandomDifferential(t *testing.T) {
	for _, tc := range differentialCases(t) {
		for _, seed := range []int64{0, 1, 97} {
			want, wantErr := randomReference(tc.in, tc.weights, tc.caps, seed)
			got, gotErr := RandomAssign{Seed: seed}.AssignWeighted(tc.in, tc.weights, tc.caps)
			if tc.weights == nil {
				got, gotErr = RandomAssign{Seed: seed}.Assign(tc.in, tc.caps)
			}
			if errText(gotErr) != errText(wantErr) {
				t.Fatalf("%s, seed %d: error %q, reference %q", tc.name, seed, errText(gotErr), errText(wantErr))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, seed %d: assignment diverges\ngot       %v\nreference %v", tc.name, seed, got, want)
			}
		}
	}
}

// mustInstance builds a full-clients instance with the first ns nodes
// as servers.
func mustInstance(t *testing.T, m latency.Matrix, ns int) *core.Instance {
	t.Helper()
	servers := make([]int, ns)
	for i := range servers {
		servers[i] = i
	}
	clients := make([]int, m.Len())
	for i := range clients {
		clients[i] = i
	}
	in, err := core.NewInstanceTrusted(m, servers, clients)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// bestMoveReference is the best-single-move scan LocalSearch and
// GreedyJoinRepair each ran before BestMove, kept as its differential
// reference: every candidate is priced by moving the client there and
// back.
func bestMoveReference(ev *core.Evaluator, caps core.Capacities) (int, int, float64) {
	in := ev.Instance()
	d := ev.D()
	bestC, bestS, bestD := -1, -1, d
	for c := 0; c < in.NumClients(); c++ {
		cur := ev.ServerOf(c)
		if cur == core.Unassigned {
			continue
		}
		if ev.MaxPathInvolving(c) < d-eps {
			continue // not on a longest path
		}
		for k := 0; k < in.NumServers(); k++ {
			if k == cur {
				continue
			}
			if caps != nil && ev.Load(k) >= caps[k] {
				continue
			}
			nd := ev.Move(c, k)
			ev.Move(c, cur)
			if nd < bestD-eps {
				bestC, bestS, bestD = c, k, nd
			}
		}
	}
	return bestC, bestS, bestD
}

// TestBestMoveDifferential pins BestMove to bestMoveReference along a
// best-move descent over the unit-weight differentialCases, with no
// capacities, exact ones and slack ones: every step must pick the same
// (client, server) with a bit-equal D, and BestMove must leave the
// evaluator's D, assignment and eccentricities as it found them. Each
// case descends from Nearest-Server (every client placed) and from a
// random partial assignment within the capacities (the churn case).
func TestBestMoveDifferential(t *testing.T) {
	for _, tc := range differentialCases(t) {
		if tc.weights != nil {
			continue
		}
		nc, ns := tc.in.NumClients(), tc.in.NumServers()
		total := 0
		for _, c := range tc.caps {
			total += c
		}
		if tc.caps != nil && total < nc {
			continue // infeasible: no start respects the capacities
		}
		nearest, err := NearestServer{}.Assign(tc.in, tc.caps)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(nc*ns + total)))
		partial := core.NewAssignment(nc)
		loads := make([]int, ns)
		for i := range partial {
			if k := rng.Intn(ns); rng.Float64() < 0.7 && (tc.caps == nil || loads[k] < tc.caps[k]) {
				partial[i] = k
				loads[k]++
			}
		}
		for _, start := range []struct {
			label string
			a     core.Assignment
		}{{"nearest", nearest}, {"partial", partial}} {
			ev, err := tc.in.NewEvaluator(start.a)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := tc.in.NewEvaluator(start.a)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 50; step++ {
				d, a := ev.D(), ev.Assignment()
				ecc := make([]float64, ns)
				for k := range ecc {
					ecc[k] = ev.Eccentricity(k)
				}
				wantC, wantS, wantD := bestMoveReference(ref, tc.caps)
				c, s, gotD := BestMove(ev, tc.caps)
				where := fmt.Sprintf("%s, %s start, step %d", tc.name, start.label, step)
				if c != wantC || s != wantS {
					t.Fatalf("%s: move (%d,%d), reference (%d,%d)", where, c, s, wantC, wantS)
				}
				if math.Float64bits(gotD) != math.Float64bits(wantD) {
					t.Fatalf("%s: D %v, reference %v", where, gotD, wantD)
				}
				if math.Float64bits(ev.D()) != math.Float64bits(d) || !reflect.DeepEqual(ev.Assignment(), a) {
					t.Fatalf("%s: BestMove changed the evaluator's D or assignment", where)
				}
				for k := range ecc {
					if math.Float64bits(ev.Eccentricity(k)) != math.Float64bits(ecc[k]) {
						t.Fatalf("%s: BestMove changed ecc(%d): %v -> %v", where, k, ecc[k], ev.Eccentricity(k))
					}
				}
				if c == -1 {
					break
				}
				ev.Move(c, s)
				ref.Move(c, s)
			}
		}
	}
}
