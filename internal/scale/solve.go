package scale

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"diacap/internal/assign"
	"diacap/internal/core"
	"diacap/internal/latency"
	"diacap/internal/obs"
)

// Solver-pool metric names and help strings, package-level consts per
// the dialint/obs-preregister schema discipline.
const (
	nSolverWorkers = "diacap_scale_solver_workers"
	hSolverWorkers = "Worker-pool size of the last reduced solve."
	nSolverJobs    = "diacap_scale_solver_jobs"
	hSolverJobs    = "Jobs fanned out by the last reduced solve."
	nWorkerUtil    = "diacap_scale_worker_utilization"
	hWorkerUtil    = "Busy-time fraction of the worker pool over the last reduced solve (0-1)."
)

// reduced is the cell-level instance: servers keep their identity,
// cells stand in for their members, and each cell weighs its member
// count against server capacities. cellOf[i] is client i's cell, so a
// cell assignment expands to clients in one walk in client order.
type reduced struct {
	in      *core.Instance
	weights assign.Weights
	clients []latency.Coord
	servers []latency.Coord
	cellOf  []int
}

// buildReduced builds the (U + k)-node instance over [servers ∥ cell
// reps] from coordinates, every entry latency.CoordLatency (floored at
// 1e-9, so coincident reps are fine here).
func buildReduced(clients, servers []latency.Coord, cells []Cell) (*reduced, error) {
	u, k := len(servers), len(cells)
	nodes := make([]latency.Coord, 0, u+k)
	nodes = append(nodes, servers...)
	for _, c := range cells {
		nodes = append(nodes, c.Rep)
	}
	serverIdx := make([]int, u)
	cellIdx := make([]int, k)
	for i := range serverIdx {
		serverIdx[i] = i
	}
	for j := range cellIdx {
		cellIdx[j] = u + j
	}
	in, err := core.NewInstanceCoords(nodes, serverIdx, cellIdx)
	if err != nil {
		return nil, fmt.Errorf("scale: building reduced instance: %w", err)
	}
	weights := make(assign.Weights, k)
	cellOf := make([]int, len(clients))
	for j, c := range cells {
		weights[j] = len(c.Members)
		for _, i := range c.Members {
			cellOf[i] = j
		}
	}
	return &reduced{in: in, weights: weights, clients: clients, servers: servers, cellOf: cellOf}, nil
}

// expand maps a cell assignment back to clients: every member of a cell
// follows its cell's server. Capacity feasibility carries over exactly
// because the weighted solve charged each cell its member count.
func (r *reduced) expand(a core.Assignment) []int {
	out := make([]int, len(r.cellOf))
	for i, j := range r.cellOf {
		out[i] = a[j]
	}
	return out
}

// exactD is the client-level D of a cell assignment's expansion under
// the coordinate metric, in O(n + U²) via the eccentricity decomposition
// (core.MaxInteractionPath's trick, restated over coordinates): each
// client contributes only to its own server's eccentricity, and the
// pair maximum separates per server. A pair sharing a server has no
// inter-server leg, whereas Coord.LatencyTo of a point to itself still
// pays both heights, so the diagonal is zero.
func (r *reduced) exactD(a core.Assignment) float64 {
	u := len(r.servers)
	ecc := make([]float64, u)
	for k := range ecc {
		ecc[k] = -1
	}
	for i, j := range r.cellOf {
		s := a[j]
		if d := r.clients[i].LatencyTo(r.servers[s]); d > ecc[s] {
			ecc[s] = d
		}
	}
	best := 0.0
	for s := 0; s < u; s++ {
		if ecc[s] < 0 {
			continue
		}
		if v := 2 * ecc[s]; v > best {
			best = v
		}
		for t := s + 1; t < u; t++ {
			if ecc[t] < 0 {
				continue
			}
			if v := ecc[s] + r.servers[s].LatencyTo(r.servers[t]) + ecc[t]; v > best {
				best = v
			}
		}
	}
	return best
}

// candidate is one solver's output on the reduced instance and the
// exact client-level D of its expansion.
type candidate struct {
	name string
	a    core.Assignment
	d    float64
	err  error
}

// solveAll fans the (algorithm × seed) jobs over a pool of
// min(GOMAXPROCS, jobs) workers and returns the best feasible candidate.
// Randomized algorithms contribute one job per restart seed;
// deterministic ones run once. Each worker computes the exact D of the
// candidate it solved; the winner is the lowest exact D, ties broken by
// job order, so the result is independent of pool width and scheduling.
// A non-nil reg receives pool telemetry (worker count, jobs, busy-time
// utilization).
func (r *reduced) solveAll(algorithms []assign.WeightedAlgorithm, caps core.Capacities, seed int64, restarts int, reg *obs.Registry) (candidate, error) {
	type job struct {
		name  string
		solve func() (core.Assignment, error)
	}
	var jobs []job
	for _, alg := range algorithms {
		alg := alg
		jobs = append(jobs, job{alg.Name(), func() (core.Assignment, error) {
			return alg.AssignWeighted(r.in, r.weights, caps)
		}})
	}
	for i := 0; i < restarts; i++ {
		s := seed + int64(i)
		jobs = append(jobs, job{fmt.Sprintf("Random[%d]", i), func() (core.Assignment, error) {
			return assign.RandomAssign{Seed: s}.AssignWeighted(r.in, r.weights, caps)
		}})
	}
	if len(jobs) == 0 {
		return candidate{}, fmt.Errorf("scale: no algorithms to run")
	}

	workers := min(runtime.GOMAXPROCS(0), len(jobs))
	results := make([]candidate, len(jobs))
	next := make(chan int)
	var busy atomic.Int64 // summed per-job wall time, ns
	poolStart := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				jobStart := time.Now()
				a, err := jobs[idx].solve()
				c := candidate{name: jobs[idx].name, a: a, err: err}
				if err == nil {
					c.d = r.exactD(a)
				}
				results[idx] = c
				busy.Add(int64(time.Since(jobStart)))
			}
		}()
	}
	for idx := range jobs {
		next <- idx
	}
	close(next)
	wg.Wait()
	if reg != nil {
		wall := time.Since(poolStart)
		util := 0.0
		if wall > 0 {
			util = float64(busy.Load()) / (float64(wall) * float64(workers))
		}
		reg.Gauge(nSolverWorkers, hSolverWorkers).Set(float64(workers))
		reg.Gauge(nSolverJobs, hSolverJobs).Set(float64(len(jobs)))
		reg.Gauge(nWorkerUtil, hWorkerUtil).Set(util)
	}

	best := -1
	for i, c := range results {
		if c.err != nil {
			continue
		}
		if best == -1 || c.d < results[best].d {
			best = i
		}
	}
	if best == -1 {
		return candidate{}, fmt.Errorf("scale: every solver failed; first error: %w", results[0].err)
	}
	return results[best], nil
}
