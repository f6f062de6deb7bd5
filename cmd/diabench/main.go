// Command diabench runs the repo's pinned hot-path benchmark suite and
// gates regressions against a checked-in baseline (BENCH_core.json).
//
// Every kernel benchmark times an optimized/naive-reference pair on the
// same fixed-seed workload and reports the speedup ratio. The
// regression gate compares RATIOS, not absolute nanoseconds: a ratio is
// a property of the code (how much the kernel beats its retained scalar
// reference on this workload), so a baseline blessed on one machine
// still gates meaningfully on another. End-to-end figure benchmarks
// have no reference pair and gate on absolute median ns; that check is
// machine-sensitive and can be disabled with -absolute-gate=false (CI
// does) or re-blessed when hardware changes.
//
// Workflow:
//
//	go run ./cmd/diabench -out BENCH_core.json             # run, record
//	go run ./cmd/diabench -compare BENCH_core.json         # run, gate (exit 1 on regression)
//	go run ./cmd/diabench -compare BENCH_core.json -bless  # run, overwrite the baseline
//
// Runs are pinned: GOMAXPROCS forced to 1 (override with -procs), all
// workloads seeded, warmup repetitions discarded, per-rep iteration
// counts auto-calibrated so each sample spans at least ~20ms.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"diacap/internal/bench"
	"diacap/internal/core"
	"diacap/internal/latency"
	"diacap/internal/obs"
	"diacap/internal/perfkit"
	"diacap/internal/placement"
	"diacap/internal/scale"
	"diacap/internal/service"
	"diacap/internal/shard"
)

// defaultThreshold is the regression gate: a kernel whose speedup ratio
// drops more than this fraction below the baseline (or an e2e benchmark
// whose median slows down by more) fails the -compare run.
const defaultThreshold = 0.15

// minRepDuration is the auto-calibration target: iterations per rep are
// doubled until one rep takes at least this long, so timer granularity
// never dominates a sample.
const minRepDuration = 20 * time.Millisecond

// benchmark is one named workload. setup builds the workload once and
// returns the optimized closure and, for kernel benchmarks, the
// retained naive reference over identical inputs; ref is nil for
// end-to-end benchmarks. Both closures return a float64 fed to a global
// sink so the compiler cannot elide the work.
type benchmark struct {
	name     string
	workload string
	setup    func() (opt, ref func() float64)
}

// sink defeats dead-code elimination of benchmark bodies.
var sink float64

// suite returns the pinned benchmark set. Setup is lazy: workloads are
// built only for benchmarks selected by -bench, so filtered runs (and
// the tests) do not pay for Meridian-scale matrix synthesis.
func suite() []benchmark {
	return []benchmark{
		{
			name:     "maxpath_pairs/meridian",
			workload: "max interaction path by client-pair scan, Meridian scale (1796 clients, 80 servers)",
			setup: func() (func() float64, func() float64) {
				in := buildInstance(latency.MeridianLike(1), 80)
				a := randomAssignment(in, 99)
				return func() float64 { return in.MaxPathNaive(a) },
					func() float64 { return in.MaxPathReference(a) }
			},
		},
		{
			name:     "incremental_d/meridian",
			workload: "per-event D maintenance under churn: incremental engine vs from-scratch MaxInteractionPath over the same assignment, Meridian scale (1796 clients, 80 servers)",
			setup: func() (func() float64, func() float64) {
				in := buildInstance(latency.MeridianLike(1), 80)
				a := randomAssignment(in, 99)
				// One shared cyclic churn tape: the evaluator and the
				// plain assignment replay the same migrations from the
				// same initial assignment, so per-event work differs only
				// in how D is maintained.
				const tapeLen = 4096
				rng := rand.New(rand.NewSource(7))
				tapeClient := make([]int, tapeLen)
				tapeServer := make([]int, tapeLen)
				for i := range tapeClient {
					tapeClient[i] = rng.Intn(in.NumClients())
					tapeServer[i] = rng.Intn(in.NumServers())
				}
				ev, err := in.NewEvaluator(a)
				if err != nil {
					panic(err)
				}
				ref := a.Clone()
				i, j := 0, 0
				return func() float64 {
						d := ev.Move(tapeClient[i], tapeServer[i])
						i = (i + 1) % tapeLen
						return d
					}, func() float64 {
						ref[tapeClient[j]] = tapeServer[j]
						d := in.MaxInteractionPath(ref)
						j = (j + 1) % tapeLen
						return d
					}
			},
		},
		{
			name:     "lower_bound/mit",
			workload: "super-optimal lower bound, MIT scale (1024 clients, 32 servers)",
			setup: func() (func() float64, func() float64) {
				in := buildInstance(latency.MITLike(2), 32)
				return func() float64 { return in.LowerBoundUncached() },
					func() float64 { return in.LowerBoundReference() }
			},
		},
		{
			name:     "min_plus/4096",
			workload: "min-plus inner product, 4096-element rows",
			setup: func() (func() float64, func() float64) {
				a, b := randomVector(4096, 3), randomVector(4096, 4)
				return func() float64 { return perfkit.MinPlus(a, b) },
					func() float64 { return perfkit.MinPlusRef(a, b) }
			},
		},
		{
			name:     "obs/plane_churn_traced",
			workload: "per-op cost of tracing on the control-plane hot path: migrate loop with a 1%-sampled tracer + flight recorder vs an uninstrumented plane (the ratio is untraced/traced time; ≈ 1.00 means tracing is free at the shipped sampling rate, and BENCH_obs.json blesses it above 0.98, i.e. ≤ 2% overhead)",
			setup: func() (func() float64, func() float64) {
				tr := obs.NewTracer(obs.TracerOptions{SampleRate: 0.01, Seed: 31})
				traced := benchPlane(tr, obs.NewRecorder(0))
				plain := benchPlane(nil, nil)
				tapeC, tapeS := churnTape(traced.NumClients(), traced.NumServers(), 7)
				i, j := 0, 0
				return func() float64 {
						ctx, sp := tr.Root(context.Background(), "bench.migrate")
						r, err := traced.Migrate(ctx, tapeC[i], tapeS[i])
						if err != nil {
							panic(err)
						}
						sp.End()
						i = (i + 1) % len(tapeC)
						return r.D
					}, func() float64 {
						r, err := plain.Migrate(context.Background(), tapeC[j], tapeS[j])
						if err != nil {
							panic(err)
						}
						j = (j + 1) % len(tapeC)
						return r.D
					}
			},
		},
		{
			name:     "obs/plane_churn_recorder",
			workload: "per-op cost of the always-on flight recorder alone: migrate loop with journals attached (no tracer) vs an uninstrumented plane (every migrate publishes an epoch, so each op writes one event into the lock-free ring; the ratio bounds that write's cost)",
			setup: func() (func() float64, func() float64) {
				recorded := benchPlane(nil, obs.NewRecorder(0))
				plain := benchPlane(nil, nil)
				tapeC, tapeS := churnTape(recorded.NumClients(), recorded.NumServers(), 7)
				i, j := 0, 0
				return func() float64 {
						r, err := recorded.Migrate(context.Background(), tapeC[i], tapeS[i])
						if err != nil {
							panic(err)
						}
						i = (i + 1) % len(tapeC)
						return r.D
					}, func() float64 {
						r, err := plain.Migrate(context.Background(), tapeC[j], tapeS[j])
						if err != nil {
							panic(err)
						}
						j = (j + 1) % len(tapeC)
						return r.D
					}
			},
		},
		{
			name:     "service/resolve_10k",
			workload: "serving read path: one amortized ResolveInto over 10000 coordinates (one snapshot pin, one perfkit evaluation) vs 10000 per-coordinate resolutions each pinning its own view (4-shard plane, 16 servers)",
			setup: func() (func() float64, func() float64) {
				p := benchPlane(nil, nil)
				coords := queryCoords(10000, 13)
				var cs perfkit.FlatMatrix
				out := make([]int, len(coords))
				lat := make([]float64, len(coords))
				var cs1 perfkit.FlatMatrix
				out1 := make([]int, 1)
				lat1 := make([]float64, 1)
				return func() float64 {
						v := p.View()
						v.ResolveInto(coords, &cs, out, lat)
						return lat[0]
					}, func() float64 {
						var s float64
						for i := range coords {
							v := p.View()
							v.ResolveInto(coords[i:i+1], &cs1, out1, lat1)
							s += lat1[0]
						}
						return s
					}
			},
		},
		{
			name:     "service/assign_batch_10k",
			workload: "serving-path amortization over the real TCP/HTTP stack: one /v1/assign-batch POST carrying 10000 clients vs 10000 sequential /v1/assign-one POSTs on the same keep-alive connection (4-shard plane, 16 servers; the speedup IS the per-client throughput ratio, blessed at >= 10x in BENCH_service.json)",
			setup: func() (func() float64, func() float64) {
				p := benchPlane(nil, nil)
				srv := httptest.NewServer(service.New(service.Options{Shard: p}))
				client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
				coords := queryCoords(10000, 13)
				appendCoord := func(b []byte, c latency.Coord) []byte {
					b = strconv.AppendFloat(b, c.X, 'g', -1, 64)
					b = append(b, ',')
					b = strconv.AppendFloat(b, c.Y, 'g', -1, 64)
					b = append(b, ',')
					b = strconv.AppendFloat(b, c.Z, 'g', -1, 64)
					b = append(b, ',')
					return strconv.AppendFloat(b, c.H, 'g', -1, 64)
				}
				batch := []byte(`{"coords":[`)
				unary := make([][]byte, len(coords))
				for i, c := range coords {
					if i > 0 {
						batch = append(batch, ',')
					}
					batch = append(batch, '[')
					batch = appendCoord(batch, c)
					batch = append(batch, ']')
					u := []byte(`{"coord":[`)
					u = appendCoord(u, c)
					unary[i] = append(u, `]}`...)
				}
				batch = append(batch, `]}`...)
				post := func(path string, body []byte) float64 {
					resp, err := client.Post(srv.URL+path, "application/json", bytes.NewReader(body))
					if err != nil {
						panic(err)
					}
					n, err := io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						panic(fmt.Sprintf("%s: status %d, read %d bytes, err %v", path, resp.StatusCode, n, err))
					}
					return float64(n)
				}
				return func() float64 { return post("/v1/assign-batch", batch) },
					func() float64 {
						var s float64
						for i := range unary {
							s += post("/v1/assign-one", unary[i])
						}
						return s
					}
			},
		},
		{
			name:     "e2e/fig7_scaled",
			workload: "Figure 7 sweep (random placement, 200 nodes, servers ∈ {4,8}, 2 runs)",
			setup: func() (func() float64, func() float64) {
				opts := bench.Options{Matrix: latency.ScaledLike(200, 5), Seed: 11, Runs: 2, Parallelism: 1}
				return func() float64 {
					fig, err := bench.Figure7(opts, placement.Random, []int{4, 8})
					if err != nil {
						panic(err)
					}
					return fig.Series[0].Y[0]
				}, nil
			},
		},
		{
			name:     "e2e/fig10_scaled",
			workload: "Figure 10 capacity sweep (random placement, 200 nodes, 8 servers, 2 runs)",
			setup: func() (func() float64, func() float64) {
				opts := bench.Options{Matrix: latency.ScaledLike(200, 5), Seed: 11, Runs: 2, Parallelism: 1}
				return func() float64 {
					fig, err := bench.Figure10(opts, placement.Random, 8, nil)
					if err != nil {
						panic(err)
					}
					return fig.Series[0].Y[0]
				}, nil
			},
		},
		{
			name:     "e2e/scale_20k",
			workload: "coordinate pipeline: cluster+solve+expand+certify, 20000 clients, 16 servers",
			setup: func() (func() float64, func() float64) {
				coords, err := latency.GenerateCoords(latency.DefaultConfig(20000), 17)
				if err != nil {
					panic(err)
				}
				servers, err := scale.PlaceServers(coords, 16, 17)
				if err != nil {
					panic(err)
				}
				opts := scale.Options{Servers: servers, Seed: 17, Workers: 1, AuditPairs: 1000}
				return func() float64 {
					res, err := scale.AssignCoords(coords, opts)
					if err != nil {
						panic(err)
					}
					return res.CertifiedD
				}, nil
			},
		},
	}
}

// buildInstance places servers on the first ns nodes and a client on
// every node — the same fixed layout the differential tests use.
// benchPlane builds a 4-shard control plane (16 servers, 1600 clients,
// synthetic coordinates — the suite's standard production scale) with
// every client joined, optionally carrying a tracer and flight recorder.
// The traced and untraced sides of the obs/ pairs each call this with
// identical coordinates, so the only difference between opt and ref is
// the instrumentation.
func benchPlane(tr *obs.Tracer, fl *obs.Recorder) *shard.Plane {
	const ns, nc = 16, 1600
	cs, err := latency.GenerateCoords(latency.DefaultConfig(ns+nc), 11)
	if err != nil {
		panic(err)
	}
	p, err := shard.New(shard.Options{
		Shards:  4,
		Servers: cs[:ns],
		Clients: cs[ns:],
		Tracer:  tr,
		Flight:  fl,
	})
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	for c := 0; c < nc; c++ {
		if _, err := p.Join(ctx, c); err != nil {
			panic(err)
		}
	}
	return p
}

// queryCoords generates n prospective-client coordinates disjoint from
// the bench plane's own population (different seed), the query stream
// the service/ benchmarks resolve.
func queryCoords(n int, seed int64) []latency.Coord {
	cs, err := latency.GenerateCoords(latency.DefaultConfig(n), seed)
	if err != nil {
		panic(err)
	}
	return cs
}

// churnTape is a fixed migrate schedule (client, target server) both
// sides of an obs/ pair replay cyclically.
func churnTape(nc, ns int, seed int64) (clients, servers []int) {
	const tapeLen = 4096
	rng := rand.New(rand.NewSource(seed))
	clients = make([]int, tapeLen)
	servers = make([]int, tapeLen)
	for i := range clients {
		clients[i] = rng.Intn(nc)
		servers[i] = rng.Intn(ns)
	}
	return clients, servers
}

func buildInstance(m latency.Matrix, ns int) *core.Instance {
	servers := make([]int, ns)
	for i := range servers {
		servers[i] = i
	}
	clients := make([]int, m.Len())
	for i := range clients {
		clients[i] = i
	}
	in, err := core.NewInstanceTrusted(m, servers, clients)
	if err != nil {
		panic(err)
	}
	return in
}

// randomAssignment returns a seeded complete assignment.
func randomAssignment(in *core.Instance, seed int64) core.Assignment {
	rng := rand.New(rand.NewSource(seed))
	a := core.NewAssignment(in.NumClients())
	for i := range a {
		a[i] = rng.Intn(in.NumServers())
	}
	return a
}

// randomVector returns a seeded latency-like vector.
func randomVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 + 300*rng.Float64()
	}
	return v
}

// entry is one benchmark's recorded result.
type entry struct {
	Name        string  `json:"name"`
	Workload    string  `json:"workload"`
	ItersPerRep int     `json:"iters_per_rep"`
	MedianNs    float64 `json:"median_ns"`
	P90Ns       float64 `json:"p90_ns"`
	CI95LowNs   float64 `json:"ci95_low_ns"`
	CI95HighNs  float64 `json:"ci95_high_ns"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// RefMedianNs, the reference CI, and Speedup are present only for
	// kernel benchmarks with a retained naive reference;
	// Speedup = RefMedianNs/MedianNs.
	RefMedianNs   float64 `json:"ref_median_ns,omitempty"`
	RefCI95LowNs  float64 `json:"ref_ci95_low_ns,omitempty"`
	RefCI95HighNs float64 `json:"ref_ci95_high_ns,omitempty"`
	Speedup       float64 `json:"speedup,omitempty"`
}

type environment struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// report is the BENCH_core.json document.
type report struct {
	Description string      `json:"description"`
	Environment environment `json:"environment"`
	Warmup      int         `json:"warmup"`
	Reps        int         `json:"reps"`
	Benchmarks  []entry     `json:"benchmarks"`
}

// measure times fn: it calibrates an iteration count so one rep spans
// at least minRepDuration, discards warmup reps, then records reps
// samples of ns/op.
func measure(fn func() float64, warmup, reps int) (samples []float64, iters int) {
	iters = 1
	for {
		ns := timeReps(fn, iters)
		if time.Duration(ns*float64(iters)) >= minRepDuration || iters >= 1<<24 {
			break
		}
		iters *= 2
	}
	for i := 0; i < warmup; i++ {
		timeReps(fn, iters)
	}
	samples = make([]float64, reps)
	for i := range samples {
		samples[i] = timeReps(fn, iters)
	}
	return samples, iters
}

// timeReps runs fn iters times and returns ns per call.
func timeReps(fn func() float64, iters int) float64 {
	start := time.Now()
	for i := 0; i < iters; i++ {
		sink += fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

// summarize reduces samples (ns/op) to median, p90, and a normal-
// approximation 95% confidence interval on the mean.
func summarize(samples []float64) (median, p90, ciLow, ciHigh float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		median = s[n/2]
	} else {
		median = (s[n/2-1] + s[n/2]) / 2
	}
	p90 = s[(n*9+9)/10-1]
	var mean float64
	for _, x := range s {
		mean += x
	}
	mean /= float64(n)
	var variance float64
	for _, x := range s {
		variance += (x - mean) * (x - mean)
	}
	if n > 1 {
		variance /= float64(n - 1)
	}
	half := 1.96 * math.Sqrt(variance/float64(n))
	return median, p90, mean - half, mean + half
}

// runBenchmark measures one benchmark (and its reference, if any).
func runBenchmark(b benchmark, warmup, reps int, progress io.Writer) entry {
	opt, ref := b.setup()
	fmt.Fprintf(progress, "running %s...\n", b.name)
	samples, iters := measure(opt, warmup, reps)
	median, p90, lo, hi := summarize(samples)
	e := entry{
		Name: b.name, Workload: b.workload, ItersPerRep: iters,
		MedianNs: median, P90Ns: p90, CI95LowNs: lo, CI95HighNs: hi,
		AllocsPerOp: testing.AllocsPerRun(3, func() { sink += opt() }),
	}
	if ref != nil {
		refSamples, _ := measure(ref, warmup, reps)
		refMedian, _, refLo, refHi := summarize(refSamples)
		e.RefMedianNs = refMedian
		e.RefCI95LowNs = refLo
		e.RefCI95HighNs = refHi
		if median > 0 {
			e.Speedup = refMedian / median
		}
		fmt.Fprintf(progress, "  median %s, ref %s, speedup %.2fx\n",
			fmtNs(median), fmtNs(refMedian), e.Speedup)
	} else {
		fmt.Fprintf(progress, "  median %s\n", fmtNs(median))
	}
	return e
}

func fmtNs(ns float64) string {
	return time.Duration(int64(ns)).Round(time.Microsecond).String()
}

// compare gates cur against base. Kernel entries (both sides carrying a
// speedup ratio) regress when the ratio drops more than threshold below
// the baseline ratio; other entries regress when the median slows down
// by more than threshold, checked only when absoluteGate is set.
func compare(cur, base *report, threshold float64, absoluteGate bool, w io.Writer) (regressions int) {
	baseByName := make(map[string]entry, len(base.Benchmarks))
	for _, e := range base.Benchmarks {
		baseByName[e.Name] = e
	}
	for _, e := range cur.Benchmarks {
		b, ok := baseByName[e.Name]
		switch {
		case !ok:
			fmt.Fprintf(w, "new  %-24s no baseline entry; bless to start gating\n", e.Name)
		case e.Speedup > 0 && b.Speedup > 0:
			floor := b.Speedup * (1 - threshold)
			// Conservative gate: a run regresses only when even its
			// most favorable reading — the reference CI high over the
			// optimized CI low — sits below the floor. Medians alone
			// flap on shared or single-core machines, where near-1x
			// kernels cross a 15% floor on scheduler noise.
			optimistic := e.Speedup
			if e.RefCI95HighNs > 0 && e.CI95LowNs > 0 {
				optimistic = e.RefCI95HighNs / e.CI95LowNs
			}
			switch {
			case optimistic < floor:
				regressions++
				fmt.Fprintf(w, "FAIL %-24s speedup %.2fx (even best-case %.2fx) below floor %.2fx (baseline %.2fx, threshold %.0f%%)\n",
					e.Name, e.Speedup, optimistic, floor, b.Speedup, threshold*100)
			case e.Speedup < floor:
				fmt.Fprintf(w, "ok   %-24s speedup %.2fx below floor %.2fx but within noise (best-case %.2fx, baseline %.2fx)\n",
					e.Name, e.Speedup, floor, optimistic, b.Speedup)
			default:
				fmt.Fprintf(w, "ok   %-24s speedup %.2fx (baseline %.2fx, floor %.2fx)\n",
					e.Name, e.Speedup, b.Speedup, floor)
			}
		case absoluteGate:
			limit := b.MedianNs * (1 + threshold)
			if e.MedianNs > limit {
				regressions++
				fmt.Fprintf(w, "FAIL %-24s median %s above limit %s (baseline %s, threshold %.0f%%)\n",
					e.Name, fmtNs(e.MedianNs), fmtNs(limit), fmtNs(b.MedianNs), threshold*100)
			} else {
				fmt.Fprintf(w, "ok   %-24s median %s (baseline %s, limit %s)\n",
					e.Name, fmtNs(e.MedianNs), fmtNs(b.MedianNs), fmtNs(limit))
			}
		default:
			fmt.Fprintf(w, "skip %-24s median %s (absolute gate disabled)\n", e.Name, fmtNs(e.MedianNs))
		}
	}
	return regressions
}

// orphanRecords returns the names of base's records that the -bench
// filter re (nil selects all) matches but that name no selected
// benchmark. compare walks only the benchmarks a run produced, so
// without this check a deleted or renamed benchmark would drop its
// gate without a word.
func orphanRecords(base *report, selected []benchmark, re *regexp.Regexp) []string {
	names := make(map[string]bool, len(selected))
	for _, b := range selected {
		names[b.name] = true
	}
	var orphans []string
	for _, e := range base.Benchmarks {
		if (re == nil || re.MatchString(e.Name)) && !names[e.Name] {
			orphans = append(orphans, e.Name)
		}
	}
	return orphans
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeReport(path string, r *report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("diabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out       = fs.String("out", "", "write results JSON to this path")
		compareTo = fs.String("compare", "", "baseline JSON to gate against (exit 1 on regression)")
		bless     = fs.Bool("bless", false, "overwrite the -compare baseline with this run's results")
		threshold = fs.Float64("threshold", defaultThreshold, "regression threshold (fraction)")
		absGate   = fs.Bool("absolute-gate", true, "gate e2e benchmarks on absolute median ns (machine-sensitive)")
		reps      = fs.Int("reps", 9, "measured repetitions per benchmark")
		warmup    = fs.Int("warmup", 2, "discarded warmup repetitions")
		procs     = fs.Int("procs", 1, "GOMAXPROCS pin for the run")
		filter    = fs.String("bench", "", "regexp selecting benchmarks to run (empty = all)")
		list      = fs.Bool("list", false, "list benchmark names and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	all := suite()
	if *list {
		for _, b := range all {
			fmt.Fprintf(stdout, "%-24s %s\n", b.name, b.workload)
		}
		return 0
	}
	selected := all
	var re *regexp.Regexp
	if *filter != "" {
		var err error
		if re, err = regexp.Compile(*filter); err != nil {
			fmt.Fprintf(stderr, "diabench: bad -bench regexp: %v\n", err)
			return 2
		}
		selected = nil
		for _, b := range all {
			if re.MatchString(b.name) {
				selected = append(selected, b)
			}
		}
	}
	if len(selected) == 0 {
		fmt.Fprintln(stderr, "diabench: no benchmarks selected")
		return 2
	}
	if *reps < 1 || *warmup < 0 || *threshold < 0 {
		fmt.Fprintln(stderr, "diabench: -reps must be >= 1, -warmup and -threshold >= 0")
		return 2
	}
	var base *report
	if *compareTo != "" && !*bless {
		var err error
		if base, err = loadReport(*compareTo); err != nil {
			fmt.Fprintf(stderr, "diabench: %v\n", err)
			return 2
		}
		if orphans := orphanRecords(base, selected, re); len(orphans) > 0 {
			for _, name := range orphans {
				fmt.Fprintf(stderr, "diabench: %s records %q, which names no benchmark; delete the record or restore the benchmark\n", *compareTo, name)
			}
			return 2
		}
	}

	prev := runtime.GOMAXPROCS(*procs)
	defer runtime.GOMAXPROCS(prev)

	r := &report{
		Description: "diabench pinned hot-path suite: optimized kernels vs retained naive references (speedup-gated), obs/ instrumentation-overhead pairs (instrumented vs bare plane, ratio-gated like kernels), plus end-to-end figure timings (median-gated). Bless with: go run ./cmd/diabench -compare BENCH_core.json -bless (or -bench '^obs/' -compare BENCH_obs.json -bless)",
		Environment: environment{
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
			GOMAXPROCS: *procs, NumCPU: runtime.NumCPU(),
		},
		Warmup: *warmup, Reps: *reps,
	}
	for _, b := range selected {
		r.Benchmarks = append(r.Benchmarks, runBenchmark(b, *warmup, *reps, stderr))
	}

	if *out != "" {
		if err := writeReport(*out, r); err != nil {
			fmt.Fprintf(stderr, "diabench: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s (%d benchmarks)\n", *out, len(r.Benchmarks))
	}

	if *compareTo == "" {
		if *bless {
			fmt.Fprintln(stderr, "diabench: -bless needs -compare to name the baseline path")
			return 2
		}
		return 0
	}
	if *bless {
		if err := writeReport(*compareTo, r); err != nil {
			fmt.Fprintf(stderr, "diabench: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "blessed %s (%d benchmarks)\n", *compareTo, len(r.Benchmarks))
		return 0
	}
	if n := compare(r, base, *threshold, *absGate, stdout); n > 0 {
		fmt.Fprintf(stdout, "%d regression(s) against %s\n", n, *compareTo)
		return 1
	}
	fmt.Fprintf(stdout, "no regressions against %s\n", *compareTo)
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
