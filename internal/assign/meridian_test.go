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
	a  core.Assignment
	lb float64
}

// BenchmarkMeridian times one call of each solve of a perfbench
// solve-meridian operation, in its order (ns, lfb, greedy, dg, then the
// four capacitated), and the uncached lower bound, on its instance with
// the clients permuted by seed 1. Run it in two trees and compare:
//
//	go test ./internal/assign -run '^$' -bench Meridian -count 5
func BenchmarkMeridian(b *testing.B) {
	in, caps := meridianInstance(b, true)
	algs := All()
	for i, key := range []string{"ns", "lfb", "greedy", "dg", "ns_cap", "lfb_cap", "greedy_cap", "dg_cap"} {
		alg := algs[i%len(algs)]
		var c core.Capacities
		if i >= len(algs) {
			c = caps
		}
		b.Run(key, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				a, err := alg.Assign(in, c)
				if err != nil {
					b.Fatal(err)
				}
				benchSink.a = a
			}
		})
	}
	b.Run("lower_bound", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			benchSink.lb = in.LowerBoundUncached()
		}
	})
}
