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
// count against server capacities.
type reduced struct {
	in      *core.Instance
	cells   []Cell
	weights assign.Weights
	servers []latency.Coord
}

// buildReduced builds the (U + k)-node instance over [servers ∥ cell
// reps] from coordinates, every entry latency.CoordLatency (floored at
// 1e-9, so coincident reps are fine here).
func buildReduced(servers []latency.Coord, cells []Cell) (*reduced, error) {
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
	for j, c := range cells {
		weights[j] = len(c.Members)
	}
	return &reduced{in: in, cells: cells, weights: weights, servers: servers}, nil
}

// certifiedD bounds the client-level D implied by a cell assignment,
// using the per-cell radii: a server's certified eccentricity is
// max over its cells of d(rep, s) + ρ, and the bound is the usual
// eccentricity form max_{s,t} ecc(s) + d(s, t) + ecc(t). This is tighter
// than D_cells + 2·max ρ (which it never exceeds) because each cell's ρ
// is charged only where the cell actually lands.
func (r *reduced) certifiedD(a core.Assignment) float64 {
	u := r.in.NumServers()
	ecc := make([]float64, u)
	for k := range ecc {
		ecc[k] = -1
	}
	for j, s := range a {
		if v := r.in.ClientServerDist(j, s) + r.cells[j].Rho; v > ecc[s] {
			ecc[s] = v
		}
	}
	best := 0.0
	for s := 0; s < u; s++ {
		if ecc[s] < 0 {
			continue
		}
		for t := s; t < u; t++ {
			if ecc[t] < 0 {
				continue
			}
			if v := ecc[s] + r.in.ServerServerDist(s, t) + ecc[t]; v > best {
				best = v
			}
		}
	}
	return best
}

// candidate is one solver's output on the reduced instance.
type candidate struct {
	name string
	a    core.Assignment
	// certD is the certified client-level bound — the selection
	// objective, since the cell-level D ignores how cell radii land.
	certD float64
	err   error
}

// solveAll fans the (algorithm × seed) jobs over a worker pool and
// returns the best feasible candidate. Randomized algorithms contribute
// one job per restart seed; deterministic ones run once. The winner is
// the candidate with the lowest certified bound, ties broken by job
// order, so the result is independent of worker count and scheduling.
// A non-nil reg receives pool telemetry (worker count, jobs, busy-time
// utilization).
func (r *reduced) solveAll(algorithms []assign.WeightedAlgorithm, caps core.Capacities, seed int64, restarts, workers int, reg *obs.Registry) (candidate, []candidate, error) {
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
		return candidate{}, nil, fmt.Errorf("scale: no algorithms to run")
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
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
					c.certD = r.certifiedD(a)
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
		if best == -1 || c.certD < results[best].certD {
			best = i
		}
	}
	if best == -1 {
		return candidate{}, results, fmt.Errorf("scale: every solver failed; first error: %w", results[0].err)
	}
	return results[best], results, nil
}
