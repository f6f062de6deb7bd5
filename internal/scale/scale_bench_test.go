package scale

import (
	"testing"

	"diacap/internal/core"
	"diacap/internal/latency"
)

// benchCoords memoizes the 10k-client population across benchmark
// iterations and sub-benchmarks.
var benchCoords []latency.Coord

func benchPopulation(b *testing.B) []latency.Coord {
	b.Helper()
	if benchCoords == nil {
		cs, err := latency.GenerateCoords(latency.DefaultConfig(10000), 1)
		if err != nil {
			b.Fatal(err)
		}
		benchCoords = cs
	}
	return benchCoords
}

// BenchmarkAssignCoords10k is the CI smoke benchmark: the full
// pipeline (cluster, reduced solve, expansion, exact D) on 10k clients
// and 32 servers. Run with -benchtime=1x for a correctness-plus-liveness
// check that stays under a second.
func BenchmarkAssignCoords10k(b *testing.B) {
	clients := benchPopulation(b)
	servers, err := PlaceServers(clients, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	caps := core.UniformCapacities(32, 2*(len(clients)/32+1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := AssignCoords(clients, Options{
			Servers:    servers,
			Capacities: caps,
			Seed:       1,
		})
		if err != nil {
			b.Fatal(err)
		}
		for k, l := range res.Loads {
			if l > caps[k] {
				b.Fatalf("server %d carries %d clients, capacity %d", k, l, caps[k])
			}
		}
	}
}

// BenchmarkCluster10k isolates the clustering stage, the dominant cost
// at million scale.
func BenchmarkCluster10k(b *testing.B) {
	clients := benchPopulation(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err := Cluster(clients, DefaultMaxCells)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) == 0 {
			b.Fatal("no cells")
		}
	}
}
