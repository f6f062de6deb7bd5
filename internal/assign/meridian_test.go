package assign

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"diacap/internal/core"
	"diacap/internal/latency"
	"diacap/internal/placement"
)

// meridian holds perfbench solve-meridian's data set, built once per
// process: MeridianLike(1) with 80 servers placed by K-center-B.
var meridian struct {
	once    sync.Once
	m       latency.Matrix
	servers []int
	err     error
}

// meridianInstance returns an instance whose clients are every node of
// solve-meridian's data set, and the capacities ⌈1.2·|C|/|S|⌉ its
// capacitated solves use. The clients are in index order, or, with
// permuted, in solve-meridian's seed-1 order
// rand.New(rand.NewSource(1)).Perm(|C|).
func meridianInstance(tb testing.TB, permuted bool) (*core.Instance, core.Capacities) {
	tb.Helper()
	meridian.once.Do(func() {
		meridian.m = latency.MeridianLike(1)
		meridian.servers, meridian.err = placement.PlaceKCenterB(meridian.m, 80)
	})
	if meridian.err != nil {
		tb.Fatal(meridian.err)
	}
	clients := make([]int, meridian.m.Len())
	for i := range clients {
		clients[i] = i
	}
	if permuted {
		clients = rand.New(rand.NewSource(1)).Perm(len(clients))
	}
	in, err := core.NewInstanceTrusted(meridian.m, meridian.servers, clients)
	if err != nil {
		tb.Fatal(err)
	}
	ns := len(meridian.servers)
	return in, core.UniformCapacities(ns, int(math.Ceil(1.2*float64(len(clients))/float64(ns))))
}

// benchSink keeps the benchmarked results live.
var benchSink struct {
	a     core.Assignment
	lb    float64
	lists [][]core.ClientDist
}

// BenchmarkMeridian times one call of each solve of a perfbench
// solve-meridian operation, in its order (ns, lfb, greedy, dg, then the
// four capacitated), the build of Greedy's lists alone (greedy_lists)
// and the uncached lower bound, on its instance with the clients
// permuted by seed 1. An instance caches Greedy's lists after their
// first use, so every timed call runs on a fresh instance, built
// outside the timer: each solve pays what it pays on a new instance.
// Run it in two trees and compare:
//
//	go test ./internal/assign -run '^$' -bench Meridian -count 5
func BenchmarkMeridian(b *testing.B) {
	_, caps := meridianInstance(b, true)
	// fresh times fn on a new instance per iteration.
	fresh := func(b *testing.B, fn func(in *core.Instance)) {
		b.StopTimer()
		for n := 0; n < b.N; n++ {
			in, _ := meridianInstance(b, true)
			b.StartTimer()
			fn(in)
			b.StopTimer()
		}
	}
	algs := All()
	for i, key := range []string{"ns", "lfb", "greedy", "dg", "ns_cap", "lfb_cap", "greedy_cap", "dg_cap"} {
		alg := algs[i%len(algs)]
		var c core.Capacities
		if i >= len(algs) {
			c = caps
		}
		b.Run(key, func(b *testing.B) {
			fresh(b, func(in *core.Instance) {
				a, err := alg.Assign(in, c)
				if err != nil {
					b.Fatal(err)
				}
				benchSink.a = a
			})
		})
	}
	b.Run("greedy_lists", func(b *testing.B) {
		fresh(b, func(in *core.Instance) { benchSink.lists = in.ServerLists() })
	})
	b.Run("lower_bound", func(b *testing.B) {
		fresh(b, func(in *core.Instance) { benchSink.lb = in.LowerBoundUncached() })
	})
}
