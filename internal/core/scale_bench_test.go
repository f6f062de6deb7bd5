package core

import (
	"testing"

	"diacap/internal/latency"
)

// Scale-sized benchmarks for the two hot loops the million-client
// pipeline leans on: the O(|C|²·|S|) super-optimal lower bound and the
// O(|C|²) full-pair D oracle.

func scaleBenchInstance(b *testing.B, nodes, servers int) *Instance {
	b.Helper()
	m := latency.ScaledLike(nodes, 1)
	sv := make([]int, servers)
	for i := range sv {
		sv[i] = i
	}
	cl := make([]int, nodes)
	for i := range cl {
		cl[i] = i
	}
	in, err := NewInstanceTrusted(m, sv, cl)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

func BenchmarkLowerBoundScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		in := scaleBenchInstance(b, 1024, 32)
		b.StartTimer()
		_ = in.LowerBound()
	}
}

func BenchmarkMaxPathNaiveScale(b *testing.B) {
	in := scaleBenchInstance(b, 2048, 32)
	a := NewAssignment(in.NumClients())
	for i := range a {
		a[i] = i % in.NumServers()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = in.MaxPathNaive(a)
	}
}
