package assign

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"diacap/internal/core"
	"diacap/internal/latency"
	"diacap/internal/obs"
)

// greedyRun is one call of the Greedy engine: the weights, capacities
// and cost rule of one of its entry points.
type greedyRun struct {
	name      string
	weights   Weights
	caps      core.Capacities
	amortized bool
}

// greedyOutcome is what a greedyRun returns and traces.
type greedyOutcome struct {
	a      core.Assignment
	events []obs.AlgoEvent
	err    string
}

func (r greedyRun) on(in *core.Instance) greedyOutcome {
	var o greedyOutcome
	a, err := greedyAssign(in, r.weights, r.caps, r.amortized, obs.Collect(&o.events))
	o.a, o.err = a, errText(err)
	return o
}

func (r greedyRun) reference(in *core.Instance) greedyOutcome {
	var o greedyOutcome
	a, err := greedyReference(in, r.weights, r.caps, r.amortized, obs.Collect(&o.events))
	o.a, o.err = a, errText(err)
	return o
}

// greedyRuns returns every way the engine is entered on in: Greedy and
// Greedy-PlainDelta, uncapacitated and capacitated, weighted Greedy
// uncapacitated and capacitated, and a weighted run that fails midway
// because one client is heavier than any server's capacity.
func greedyRuns(in *core.Instance, rng *rand.Rand) []greedyRun {
	nc, ns := in.NumClients(), in.NumServers()
	weights := make(Weights, nc)
	total := 0
	for i := range weights {
		weights[i] = 1 + rng.Intn(4)
		total += weights[i]
	}
	// Capacity c per server with c·(|S|−1) ≥ |C| fits every client of
	// weight 1 and one of weight c+1 in total, but that one nowhere.
	heavyCap := (nc + ns - 2) / (ns - 1)
	heavy := make(Weights, nc)
	for i := range heavy {
		heavy[i] = 1
	}
	heavy[nc/2] = heavyCap + 1
	unitCaps := core.UniformCapacities(ns, (nc+ns-1)/ns)
	return []greedyRun{
		{"Greedy", nil, nil, true},
		{"Greedy-PlainDelta", nil, nil, false},
		{"Greedy capacitated", nil, unitCaps, true},
		{"Greedy-PlainDelta capacitated", nil, unitCaps, false},
		{"weighted Greedy", weights, nil, true},
		{"weighted Greedy capacitated", weights, core.UniformCapacities(ns, (total+ns-1)/ns+1), true},
		{"weighted Greedy, one client fits nowhere", heavy, core.UniformCapacities(ns, heavyCap), true},
	}
}

// fresh returns a copy of in that has built nothing yet.
func fresh(in *core.Instance) *core.Instance {
	idx := make([]int, in.NumClients())
	for i := range idx {
		idx[i] = i
	}
	return in.Restrict(idx)
}

// sharedListInstances returns small instances with ties, real-valued
// latencies and equal distances, each with at least two servers.
func sharedListInstances(t *testing.T) []*core.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	ints := latency.NewMatrix(30)
	for i := 0; i < 30; i++ {
		for j := i + 1; j < 30; j++ {
			v := float64(1 + rng.Intn(4))
			ints[i][j], ints[j][i] = v, v
		}
	}
	eq := latency.NewMatrix(12)
	for i := range eq {
		for j := range eq[i] {
			if i != j {
				eq[i][j] = 7
			}
		}
	}
	var out []*core.Instance
	for _, tc := range []struct {
		m  latency.Matrix
		ns int
	}{{ints, 4}, {latency.ScaledLike(40, 9), 5}, {eq, 3}} {
		perm := rng.Perm(tc.m.Len())
		in, err := core.NewInstanceTrusted(tc.m, perm[:tc.ns], perm[tc.ns:])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, in)
	}
	return out
}

// checkOutcome fails unless got equals want in assignment, trace events
// and error text.
func checkOutcome(t *testing.T, where string, got, want greedyOutcome) {
	t.Helper()
	if got.err != want.err {
		t.Fatalf("%s: error %q, want %q", where, got.err, want.err)
	}
	if !reflect.DeepEqual(got.a, want.a) {
		t.Fatalf("%s: assignment diverges\ngot  %v\nwant %v", where, got.a, want.a)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Fatalf("%s: trace diverges\ngot  %+v\nwant %+v", where, got.events, want.events)
	}
}

// TestGreedySharedLists runs every entry of the Greedy engine in
// several orders on one instance, which builds its server lists once
// and shares them, and checks each run against the same run on an
// instance of its own and against greedyReference. A sub-instance
// Restrict'ed from the used instance must build its own lists.
func TestGreedySharedLists(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for n, in := range sharedListInstances(t) {
		runs := greedyRuns(in, rng)
		want := make([]greedyOutcome, len(runs))
		for i, r := range runs {
			want[i] = r.reference(in)
			if (want[i].err != "") != (r.name == "weighted Greedy, one client fits nowhere") {
				t.Fatalf("instance %d, %s: reference error %q", n, r.name, want[i].err)
			}
			checkOutcome(t, fmt.Sprintf("instance %d, %s on its own instance", n, r.name), r.on(fresh(in)), want[i])
		}
		orders := [][]int{rng.Perm(len(runs)), rng.Perm(len(runs)), rng.Perm(len(runs))}
		forward, reverse := make([]int, len(runs)), make([]int, len(runs))
		for i := range forward {
			forward[i], reverse[i] = i, len(runs)-1-i
		}
		orders = append(orders, forward, reverse)
		for _, order := range orders {
			shared := fresh(in)
			for p, i := range order {
				where := fmt.Sprintf("instance %d, order %v, run %d (%s)", n, order, p, runs[i].name)
				checkOutcome(t, where, runs[i].on(shared), want[i])
			}

			idx := rng.Perm(in.NumClients())[:in.NumClients()/2+1]
			sub := shared.Restrict(idx)
			for _, r := range []greedyRun{{"Greedy", nil, nil, true}, {"Greedy-PlainDelta", nil, nil, false}} {
				where := fmt.Sprintf("instance %d, order %v, %s on a restricted sub-instance", n, order, r.name)
				checkOutcome(t, where, r.on(sub), r.reference(sub))
			}
			if got, want := len(sub.ServerLists()[0]), len(idx); got != want {
				t.Fatalf("instance %d: restricted lists hold %d clients, want %d", n, got, want)
			}
		}
	}
}

// TestGreedyConcurrentFirstUse starts every entry of the Greedy engine
// at once on an instance that has built nothing, so they race to build
// its server lists; each must still match greedyReference. Run it
// under -race.
func TestGreedyConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for n, in := range sharedListInstances(t) {
		runs := greedyRuns(in, rng)
		shared := fresh(in)
		got := make([]greedyOutcome, len(runs))
		var wg sync.WaitGroup
		for i, r := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = r.on(shared)
			}()
		}
		wg.Wait()
		for i, r := range runs {
			checkOutcome(t, fmt.Sprintf("instance %d, %s", n, r.name), got[i], r.reference(in))
		}
	}
}
