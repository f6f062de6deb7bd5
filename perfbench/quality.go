package main

import (
	"math"

	"diacap/internal/core"
	"diacap/internal/latency"
	"diacap/internal/perfkit"
)

// planeQuality checks the plane's published D against a recomputation
// from the coordinates and the published assignment, and records d_ms
// (that D) and d_norm (D over the paper's lower bound for the active
// clients).
func planeQuality(r *result, p *plane) {
	snap := p.Current()
	d := recomputeD(p.servers, p.clients, snap.Assignment)
	r.check(d == snap.D, "published D %v, recomputed %v (epoch %d)", snap.D, d, snap.Epoch)
	r.values["d_ms"] = snap.D
	if lb := lowerBound(p.servers, p.clients, snap.Assignment); lb > 0 {
		r.values["d_norm"] = snap.D / lb
	}
	r.check(snap.D > 0, "published D is %v", snap.D)
}

// clientServer is the latency the plane's sub-instances hold between a
// server and a client: latency.CoordsToMatrix over [servers ∥ clients]
// computes it from the server's side (the lower index) and floors it.
func clientServer(s, c latency.Coord) float64 {
	return max(s.LatencyTo(c), 1e-9)
}

// recomputeD is D in its eccentricity form: each server's farthest
// assigned client, then the pair scan over used servers k ≤ l in the
// same order as the plane's reconciliation, so no client-by-client
// matrix is built and the result is bit-comparable.
func recomputeD(servers, clients []latency.Coord, assignment []int) float64 {
	ecc := make([]float64, len(servers))
	for k := range ecc {
		ecc[k] = -1
	}
	for c, k := range assignment {
		if k != core.Unassigned {
			ecc[k] = max(ecc[k], clientServer(servers[k], clients[c]))
		}
	}
	ss := latency.CoordsToMatrix(servers)
	var d float64
	for k := range ecc {
		if ecc[k] < 0 {
			continue
		}
		for l := k; l < len(ecc); l++ {
			if ecc[l] >= 0 {
				d = max(d, ecc[k]+ss[k][l]+ecc[l])
			}
		}
	}
	return d
}

// lowerBound is core.Instance.LowerBound for the active clients of an
// assignment, computed from coordinates with the same perfkit kernels
// in the same order: max over client pairs of the shortest path
// through any two servers.
func lowerBound(servers, clients []latency.Coord, assignment []int) float64 {
	var active []latency.Coord
	for c, k := range assignment {
		if k != core.Unassigned {
			active = append(active, clients[c])
		}
	}
	ns := len(servers)
	ss := latency.CoordsToMatrix(servers)
	cs := perfkit.NewFlatMatrix(len(active), ns)
	for i, c := range active {
		row := cs.Row(i)
		for k, s := range servers {
			row[k] = clientServer(s, c)
		}
	}
	b := perfkit.NewFlatMatrix(len(active), ns)
	for i := range active {
		row := b.Row(i)
		for l := range row {
			row[l] = perfkit.MinPlus(cs.Row(i), ss[l])
		}
	}
	var lb float64
	for i := range active {
		lb = perfkit.MaxMinPlus(b.Row(i), cs, i, lb)
	}
	if math.IsInf(lb, 0) {
		return 0
	}
	return lb
}
