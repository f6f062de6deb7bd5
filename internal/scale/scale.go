// Package scale assigns very large client populations — a million and
// beyond — to servers without ever materializing the O(n²) latency
// matrix the paper's algorithms consume. The pipeline:
//
//  1. Ingest clients as network coordinates (latency.Coord, the Vivaldi
//     height-vector model): O(n) memory, any pairwise latency on demand.
//  2. Aggregate clients into k ≤ MaxCells cells — a greedy radius-r
//     covering seeded by a spatial grid, refined by k-means — where each
//     cell records its members and a representative.
//  3. Solve the reduced (U + k)-node instance with the paper's
//     heuristics, capacity-weighted (a cell of m clients consumes m
//     capacity), fanning per-algorithm/per-seed solves over a worker
//     pool. Each worker computes the exact client-level D of its
//     candidate's expansion, in O(n + U²) via per-server
//     eccentricities; the lowest exact D wins.
//  4. Expand back to clients: every member follows its cell's server,
//     and the winner's exact D is the D reported.
//
// The reduction is the standard coarsening move for scaling
// combinatorial heuristics. Coordinates make it cheap to judge: any
// client-server latency is computed on demand, so the D of the expanded
// assignment is exact rather than estimated, which is why this pipeline
// ingests coordinates rather than raw matrices.
package scale

import (
	"fmt"
	"math/rand"
	"time"

	"diacap/internal/assign"
	"diacap/internal/core"
	"diacap/internal/latency"
	"diacap/internal/obs"
)

// DefaultMaxCells bounds the reduced instance when Options.MaxCells is
// zero: 2000 cells keep the reduced solve in the regime the paper's
// heuristics were measured in, while a million clients still average
// 500 members per cell.
const DefaultMaxCells = 2000

// lloydRounds is the number of Lloyd refinement rounds after the greedy
// covering.
const lloydRounds = 8

// Options configures AssignCoords.
type Options struct {
	// Servers are the server coordinates (required). PlaceServers can
	// derive them from the client population.
	Servers []latency.Coord
	// Capacities optionally limits clients per server, aligned with
	// Servers, in client units (a cell of m clients consumes m).
	Capacities core.Capacities
	// MaxCells bounds the reduced instance size (0 = DefaultMaxCells).
	// With MaxCells ≥ len(clients) every client is its own cell and the
	// pipeline degenerates to a direct solve.
	MaxCells int
	// Algorithms names the solvers for the reduced instance; each must
	// be a WeightedAlgorithm (default: Nearest-Server,
	// Longest-First-Batch, Greedy).
	Algorithms []string
	// RandomRestarts adds that many seeded weighted-random candidates to
	// the solver pool — cheap diversity that occasionally wins on
	// degenerate geometries (default 0).
	RandomRestarts int
	// Seed drives the random restarts (the clustering and default
	// solvers are deterministic).
	Seed int64
	// Metrics, if non-nil, receives pipeline telemetry: sizes, the exact
	// D, stage timings and worker-pool utilization.
	Metrics *obs.Registry
}

func (o *Options) fill() {
	if o.MaxCells == 0 {
		o.MaxCells = DefaultMaxCells
	}
	if len(o.Algorithms) == 0 {
		o.Algorithms = []string{"Nearest-Server", "Longest-First-Batch", "Greedy"}
	}
}

// Result is a scaled assignment and its exact D.
type Result struct {
	// Assignment[i] is the server index for client i.
	Assignment []int
	// Algorithm is the reduced-instance solver that won.
	Algorithm string
	// Cells is the reduced instance size k.
	Cells int
	// DCells is the cell-level D of the winning reduced assignment.
	DCells float64
	// ExactD is the exact client-level D of Assignment under the
	// coordinate metric: the lowest among the candidates, by which the
	// winner was chosen.
	ExactD float64
	// Loads[k] is the number of clients on server k.
	Loads []int
	// ClusterMs, SolveMs, ExpandMs break down the wall-clock time.
	ClusterMs, SolveMs, ExpandMs float64
}

// AssignCoords runs the full pipeline: cluster, solve, expand.
func AssignCoords(clients []latency.Coord, opts Options) (*Result, error) {
	opts.fill()
	if len(clients) == 0 {
		return nil, fmt.Errorf("scale: no clients")
	}
	if len(opts.Servers) == 0 {
		return nil, fmt.Errorf("scale: no servers (set Options.Servers, e.g. via PlaceServers)")
	}
	for i, c := range clients {
		if err := c.Valid(); err != nil {
			return nil, fmt.Errorf("scale: client %d: %w", i, err)
		}
	}
	for k, s := range opts.Servers {
		if err := s.Valid(); err != nil {
			return nil, fmt.Errorf("scale: server %d: %w", k, err)
		}
	}
	algorithms := make([]assign.WeightedAlgorithm, 0, len(opts.Algorithms))
	for _, name := range opts.Algorithms {
		alg, err := assign.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("scale: %w", err)
		}
		w, ok := alg.(assign.WeightedAlgorithm)
		if !ok {
			return nil, fmt.Errorf("scale: algorithm %q cannot solve weighted reduced instances", name)
		}
		algorithms = append(algorithms, w)
	}

	start := time.Now()
	cells, err := Cluster(clients, opts.MaxCells)
	if err != nil {
		return nil, err
	}
	clusterMs := msSince(start)

	start = time.Now()
	red, err := buildReduced(clients, opts.Servers, cells)
	if err != nil {
		return nil, err
	}
	best, err := red.solveAll(algorithms, opts.Capacities, opts.Seed, opts.RandomRestarts, opts.Metrics)
	if err != nil {
		return nil, err
	}
	solveMs := msSince(start)

	start = time.Now()
	a := red.expand(best.a)
	res := &Result{
		Assignment: a,
		Algorithm:  best.name,
		Cells:      len(cells),
		DCells:     red.in.MaxInteractionPath(best.a),
		ExactD:     best.d,
		Loads:      make([]int, len(opts.Servers)),
		ClusterMs:  clusterMs,
		SolveMs:    solveMs,
	}
	for _, s := range a {
		res.Loads[s]++
	}
	res.ExpandMs = msSince(start)
	recordPipeline(opts.Metrics, len(clients), res)
	return res, nil
}

// Pipeline metric names and help strings, package-level consts per the
// dialint/obs-preregister schema discipline.
const (
	nScaleClients  = "diacap_scale_clients"
	hScaleClients  = "Client population of the last pipeline run."
	nScaleCells    = "diacap_scale_cells"
	hScaleCells    = "Reduced-instance cell count of the last pipeline run."
	nScaleD        = "diacap_scale_d_ms"
	hScaleD        = "Exact client-level D of the last pipeline run's assignment, in ms."
	nScaleStageSec = "diacap_scale_stage_seconds"
	hScaleStageSec = "Wall-clock time per pipeline stage in seconds."
)

// recordPipeline publishes one finished pipeline run: sizes, the exact
// D, and per-stage timings.
func recordPipeline(reg *obs.Registry, numClients int, res *Result) {
	if reg == nil {
		return
	}
	reg.Gauge(nScaleClients, hScaleClients).Set(float64(numClients))
	reg.Gauge(nScaleCells, hScaleCells).Set(float64(res.Cells))
	reg.Gauge(nScaleD, hScaleD).Set(res.ExactD)
	observeStage(reg, "cluster", res.ClusterMs)
	observeStage(reg, "solve", res.SolveMs)
	observeStage(reg, "expand", res.ExpandMs)
}

// observeStage records one stage duration; the three stages are unrolled
// at the call site so instrument resolution stays out of loops.
func observeStage(reg *obs.Registry, stage string, ms float64) {
	reg.Histogram(nScaleStageSec, hScaleStageSec,
		obs.SecondsBuckets, obs.L("stage", stage)).Observe(ms / 1000)
}

// PlaceServers picks u server coordinates from the client population by
// greedy farthest-point traversal (the 2-approximate K-center heuristic,
// the coordinate-space analog of placement.KCenterB): the first server
// is a seeded random client, each next one the client farthest from all
// chosen so far. Populations beyond maxSample (20000) are subsampled
// first, keeping the scan linear in u.
func PlaceServers(clients []latency.Coord, u int, seed int64) ([]latency.Coord, error) {
	if u < 1 {
		return nil, fmt.Errorf("scale: u = %d servers, want >= 1", u)
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("scale: no clients to place servers over")
	}
	const maxSample = 20000
	rng := rand.New(rand.NewSource(seed))
	pool := clients
	if len(pool) > maxSample {
		pool = make([]latency.Coord, maxSample)
		for i, j := range rng.Perm(len(clients))[:maxSample] {
			pool[i] = clients[j]
		}
	}
	if u > len(pool) {
		return nil, fmt.Errorf("scale: u = %d servers exceeds %d candidate clients", u, len(pool))
	}

	out := make([]latency.Coord, 0, u)
	minDist := make([]float64, len(pool))
	pick := rng.Intn(len(pool))
	for len(out) < u {
		out = append(out, pool[pick])
		next, nextD := -1, -1.0
		for i := range pool {
			d := pool[i].LatencyTo(out[len(out)-1])
			if len(out) == 1 || d < minDist[i] {
				minDist[i] = d
			}
			if minDist[i] > nextD {
				next, nextD = i, minDist[i]
			}
		}
		pick = next
	}
	return out, nil
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
