// Command perfbench is the repository's end-to-end benchmark. Each run
// builds one workload's state in-process, drives it from the same
// process for a fixed measurement window, checks every output, and
// prints its metrics as one JSON object on the last line of standard
// output:
//
//	bash perfbench/run.sh --workload resolve-batch --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the metrics are the end-to-end set (setup_s, heap_mb,
// p50_ms, cpu_us_per_op, d_ms, d_norm); with --trace 1 a separate run
// records spans around every layer call and prints the per-layer
// ledger instead. The line before the result carries the environment
// block, the diagnostics that are printed but not gated (p99, wall
// throughput, fail_ratio) and the end-to-end metrics. A failed output
// check prints the result with "correct": false and exits 1.
//
// BENCHMARK.json at the repository root lists the workloads and
// metrics; LEDGER.md in this directory maps each layer to the
// end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setupRepeats is how many times the workload state is built; the
	// reported setup_s is the median.
	setupRepeats int
}

// window is the measurement window.
func (c config) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// warmup is the unmeasured lead-in before each measured phase: long
// enough for pools and caches to settle, short next to the window.
func (c config) warmup() time.Duration {
	return min(max(c.window()/10, 200*time.Millisecond), 1500*time.Millisecond)
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"resolve-batch":  func(c config) (*result, error) { return runResolve(c, false) },
	"resolve-unary":  func(c config) (*result, error) { return runResolve(c, true) },
	"churn":          runChurn,
	"solve-meridian": runSolve,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 12, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[cfg.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", cfg.workload, workloadNames())
		return 2
	case cfg.seconds <= 0:
		fmt.Fprintf(stderr, "perfbench: --seconds %v, want > 0\n", cfg.seconds)
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace %d, want 0 or 1\n", trace)
		return 2
	}
	cfg.trace = trace == 1
	cfg.setupRepeats = 5
	res, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := res.write(stdout, cfg); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing result: %v\n", err)
		return 1
	}
	if !res.correct() {
		for _, msg := range res.checkFailures {
			fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", cfg.workload, msg)
		}
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric, fixes its unit and lists the workloads
// that measure it (nil: every workload).
type metricDef struct {
	name, unit string
	on         []string
}

// measuredOn reports whether workload w measures the metric.
func (d metricDef) measuredOn(w string) bool { return d.on == nil || slices.Contains(d.on, w) }

// endToEnd are the gated metrics of an untraced run, printed for every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s", onAll},
	{"heap_mb", "MB", onAll},
	{"p50_ms", "ms", onAll},
	{"cpu_us_per_op", "us", onAll},
	{"d_ms", "ms", onAll},
	{"d_norm", "1", onAll},
}

// diagnostics are printed on the report line of every run but not
// gated: they move too much between windows to bound (see LEDGER.md).
var diagnostics = []metricDef{
	{"fail_ratio", "1", onAll},
	{"p99_ms", "ms", onAll},
	{"samples", "count", onAll},
	{"ops_per_s", "1/s", onAll},
}

// result is what a workload run produces.
type result struct {
	attempted, failed int
	checkFailures     []string
	values            map[string]float64
	env               map[string]any
}

func newResult(cfg config) *result {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return &result{
		values: make(map[string]float64),
		env: map[string]any{
			"workload":   cfg.workload,
			"seed":       cfg.seed,
			"seconds":    cfg.seconds,
			"trace":      cfg.trace,
			"num_cpu":    runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(),
			"gogc":       gogc,
		},
	}
}

// check records a failed output check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.checkFailures = append(r.checkFailures, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return len(r.checkFailures) == 0 && r.failed == 0 }

// write prints the report line and then the result line. The report
// line carries the environment, the diagnostics, the end-to-end metrics
// (in a traced run, those of its untraced ops) and any failed checks.
// A result-line metric the workload measures but the run never set
// fails a check; layers off the workload's path print as 0.
func (r *result) write(w io.Writer, cfg config) error {
	for name, v := range r.values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "metric %s is %v", name, v)
			r.values[name] = 0
		}
	}
	printed := endToEnd
	if cfg.trace {
		printed = perLayer
	}
	for _, d := range printed {
		if _, ok := r.values[d.name]; !ok && d.measuredOn(cfg.workload) {
			r.check(false, "metric %s was not measured", d.name)
		}
	}
	pick := func(defs []metricDef) map[string]metric {
		out := make(map[string]metric, len(defs))
		for _, d := range defs {
			out[d.name] = metric{Value: r.values[d.name], Unit: d.unit}
		}
		return out
	}
	if r.attempted > 0 {
		r.values["fail_ratio"] = float64(r.failed) / float64(r.attempted)
	}
	report := map[string]any{
		"env":         r.env,
		"diagnostics": pick(diagnostics),
		"end_to_end":  pick(endToEnd),
		"checks":      r.checkFailures,
	}
	metrics := pick(printed)
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics}
	enc := json.NewEncoder(w)
	if err := enc.Encode(report); err != nil {
		return err
	}
	return enc.Encode(final)
}
