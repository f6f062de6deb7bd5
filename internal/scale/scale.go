// Package scale assigns very large client populations — a million and
// beyond — to servers without ever materializing the O(n²) latency
// matrix the paper's algorithms consume. The pipeline:
//
//  1. Ingest clients as network coordinates (latency.Coord, the Vivaldi
//     height-vector model): O(n) memory, any pairwise latency on demand.
//  2. Aggregate clients into k ≤ MaxCells cells — a greedy radius-r
//     covering seeded by a spatial grid, refined by k-means — where each
//     cell records its member count m and radius ρ (max member→rep
//     latency).
//  3. Solve the reduced (U + k)-node instance with the paper's
//     heuristics, capacity-weighted (a cell of m clients consumes m
//     capacity), fanning per-algorithm/per-seed solves over a worker
//     pool and keeping the certified-best candidate.
//  4. Expand back to clients, with a certificate: because the
//     coordinate metric satisfies the triangle inequality, every
//     member's path detours through its rep at a cost of at most ρ per
//     endpoint, so D_clients ≤ CertifiedD ≤ D_cells + 2·max ρ. The
//     exact client-level D (O(n + U²) via eccentricities) and an
//     audited random subsample are reported alongside.
//
// The reduction is the standard coarsening move for scaling
// combinatorial heuristics; the coordinate metric is what turns it from
// a hope into a certificate, which is why this pipeline ingests
// coordinates rather than raw matrices.
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
	// Seed drives the random restarts and the audit sample (the
	// clustering and default solvers are deterministic).
	Seed int64
	// Workers bounds the solver pool fan-out (0 = GOMAXPROCS).
	Workers int
	// AuditPairs is the size of the random pair subsample measured
	// against the expanded assignment (0 = 10000; negative disables).
	AuditPairs int
	// Metrics, if non-nil, receives pipeline telemetry: cell count and
	// radii, stage timings, worker-pool utilization, and the certified
	// bound vs. audited D gap.
	Metrics *obs.Registry
}

func (o *Options) fill() {
	if o.MaxCells == 0 {
		o.MaxCells = DefaultMaxCells
	}
	if len(o.Algorithms) == 0 {
		o.Algorithms = []string{"Nearest-Server", "Longest-First-Batch", "Greedy"}
	}
	if o.AuditPairs == 0 {
		o.AuditPairs = 10000
	}
	if o.AuditPairs < 0 {
		o.AuditPairs = 0
	}
}

// Result is a scaled assignment with its quality certificate.
type Result struct {
	// Assignment[i] is the server index for client i.
	Assignment []int
	// Algorithm is the reduced-instance solver that won.
	Algorithm string
	// Cells is the reduced instance size k.
	Cells int
	// MaxRho is the largest cell radius (ms).
	MaxRho float64
	// DCells is the cell-level D of the winning reduced assignment.
	DCells float64
	// CertifiedD is the certified upper bound on the client-level D:
	// ExactD ≤ CertifiedD ≤ DCells + 2·MaxRho, by the triangle
	// inequality of the coordinate metric.
	CertifiedD float64
	// ExactD is the exact client-level D under the coordinate metric.
	ExactD float64
	// AuditedD is the maximum interaction path over AuditPairs random
	// client pairs — an independent spot-check, never above ExactD.
	AuditedD float64
	// AuditPairs is the number of sampled pairs behind AuditedD.
	AuditPairs int
	// Loads[k] is the number of clients on server k.
	Loads []int
	// ClusterMs, SolveMs, ExpandMs break down the wall-clock time.
	ClusterMs, SolveMs, ExpandMs float64
}

// AssignCoords runs the full pipeline: cluster, solve, expand, certify.
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
	cells, err := Cluster(clients, opts.MaxCells, lloydRounds)
	if err != nil {
		return nil, err
	}
	clusterMs := msSince(start)

	start = time.Now()
	red, err := buildReduced(opts.Servers, cells)
	if err != nil {
		return nil, err
	}
	best, _, err := red.solveAll(algorithms, opts.Capacities, opts.Seed, opts.RandomRestarts, opts.Workers, opts.Metrics)
	if err != nil {
		return nil, err
	}
	solveMs := msSince(start)

	start = time.Now()
	a := expand(len(clients), cells, best.a)
	res := &Result{
		Assignment: a,
		Algorithm:  best.name,
		Cells:      len(cells),
		DCells:     red.in.MaxInteractionPath(best.a),
		CertifiedD: best.certD,
		ExactD:     exactD(clients, opts.Servers, a),
		AuditPairs: opts.AuditPairs,
		Loads:      make([]int, len(opts.Servers)),
		ClusterMs:  clusterMs,
		SolveMs:    solveMs,
	}
	for _, cell := range cells {
		if cell.Rho > res.MaxRho {
			res.MaxRho = cell.Rho
		}
	}
	for _, s := range a {
		res.Loads[s]++
	}
	if opts.AuditPairs > 0 {
		res.AuditedD = auditD(clients, opts.Servers, a, opts.AuditPairs, opts.Seed)
	}
	res.ExpandMs = msSince(start)
	recordPipeline(opts.Metrics, len(clients), res)
	return res, nil
}

// recordPipeline publishes one finished pipeline run: sizes, the
// certificate chain (cell-level D ≤ certified bound, audited D below the
// exact value), and per-stage timings. The bound-vs-audit gap is the
// pipeline's accuracy margin: how much the triangle-inequality
// certificate over-states the D actually measured on sampled clients.
// Pipeline metric names and help strings, package-level consts per the
// dialint/obs-preregister schema discipline.
const (
	nScaleClients  = "diacap_scale_clients"
	hScaleClients  = "Client population of the last pipeline run."
	nScaleCells    = "diacap_scale_cells"
	hScaleCells    = "Reduced-instance cell count of the last pipeline run."
	nScaleMaxRho   = "diacap_scale_max_rho_ms"
	hScaleMaxRho   = "Largest cell radius of the last pipeline run, in ms."
	nScaleCertD    = "diacap_scale_certified_d_ms"
	hScaleCertD    = "Certified upper bound on the client-level D, in ms."
	nScaleAuditD   = "diacap_scale_audited_d_ms"
	hScaleAuditD   = "Maximum interaction path over the audited client-pair subsample, in ms."
	nScaleCertGap  = "diacap_scale_cert_gap_ms"
	hScaleCertGap  = "Certified bound minus audited D, in ms — the certificate's slack."
	nScaleStageSec = "diacap_scale_stage_seconds"
	hScaleStageSec = "Wall-clock time per pipeline stage in seconds."
)

func recordPipeline(reg *obs.Registry, numClients int, res *Result) {
	if reg == nil {
		return
	}
	reg.Gauge(nScaleClients, hScaleClients).Set(float64(numClients))
	reg.Gauge(nScaleCells, hScaleCells).Set(float64(res.Cells))
	reg.Gauge(nScaleMaxRho, hScaleMaxRho).Set(res.MaxRho)
	reg.Gauge(nScaleCertD, hScaleCertD).Set(res.CertifiedD)
	reg.Gauge(nScaleAuditD, hScaleAuditD).Set(res.AuditedD)
	reg.Gauge(nScaleCertGap, hScaleCertGap).Set(res.CertifiedD - res.AuditedD)
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
