// Command diaload load-tests a running capserver's serving endpoints
// (/v1/assign-one, /v1/assign-batch) over the real TCP/HTTP stack and
// reports per-phase latency quantiles.
//
// Usage:
//
//	capserver -plane &
//	diaload -url http://127.0.0.1:8080 -batch 256 \
//	        -ramp 5s -steady 20s -overload 5s
//
// The run is three phases — ramp (offered load grows linearly to the
// target), steady (target held), overload (target × -overload-factor) —
// each reported separately with p50/p99/p999, throughput, and resolved
// clients/sec. Zero-duration phases are skipped.
//
//	-mode closed   N workers issue back-to-back requests (-workers)
//	-mode open     arrivals fire at a fixed rate (-rate) regardless of
//	               completions — the discipline that exposes queueing
//	               collapse; in-flight capped at -max-inflight, arrivals
//	               beyond the cap reported as dropped
//
// Admission sheds (429 + Retry-After) are counted separately from
// errors: a shedding server is healthy, a server returning anything
// else — including a partial batch or a 429 without Retry-After — is
// not. diaload exits 0 when every response was a complete 200 or a
// protocol-correct shed, 2 when any non-429 error was observed (the CI
// load-smoke gate), and 1 on setup failure.
//
//	-json          machine-readable result on stdout (the human table
//	               goes to stderr)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"diacap/internal/loadgen"
)

func main() {
	var (
		url            = flag.String("url", "http://127.0.0.1:8080", "server base URL")
		endpoint       = flag.String("endpoint", "/v1/assign-batch", "serving endpoint: /v1/assign-batch or /v1/assign-one")
		batch          = flag.Int("batch", 64, "coordinates per batch request (unary endpoint always sends 1)")
		mode           = flag.String("mode", "closed", "generator discipline: closed | open")
		workers        = flag.Int("workers", 8, "closed-loop concurrency at the steady target")
		rate           = flag.Float64("rate", 500, "open-loop arrivals/sec at the steady target")
		ramp           = flag.Duration("ramp", 3*time.Second, "ramp phase duration (0 = skip)")
		steady         = flag.Duration("steady", 10*time.Second, "steady phase duration (0 = skip)")
		overload       = flag.Duration("overload", 3*time.Second, "overload phase duration (0 = skip)")
		overloadFactor = flag.Float64("overload-factor", 4, "overload offered load as a multiple of the steady target")
		maxInFlight    = flag.Int("max-inflight", 512, "open-loop in-flight request cap")
		seed           = flag.Int64("seed", 1, "coordinate generator seed")
		jsonOut        = flag.Bool("json", false, "print the result as JSON on stdout")
	)
	flag.Parse()

	overWorkers := int(math.Ceil(float64(*workers) * *overloadFactor))
	cfg := loadgen.Config{
		URL:         *url,
		Endpoint:    *endpoint,
		Batch:       *batch,
		Mode:        loadgen.Mode(*mode),
		Seed:        *seed,
		MaxInFlight: *maxInFlight,
		Phases: []loadgen.Phase{
			{Name: "ramp", Duration: *ramp, Workers: *workers, Rate: *rate, Ramp: true},
			{Name: "steady", Duration: *steady, Workers: *workers, Rate: *rate},
			{Name: "overload", Duration: *overload, Workers: overWorkers, Rate: *rate * *overloadFactor},
		},
	}
	runner, err := loadgen.New(cfg)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, runErr := runner.Run(ctx)
	printTable(os.Stderr, res)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
	}
	if runErr != nil {
		fatal(fmt.Errorf("run interrupted: %w", runErr))
	}
	if n := res.TotalErrors(); n > 0 {
		fmt.Fprintf(os.Stderr, "diaload: %d non-429 errors\n", n)
		os.Exit(2)
	}
}

func printTable(w *os.File, res *loadgen.Result) {
	fmt.Fprintf(w, "diaload %s  mode=%s  batch=%d\n", res.Endpoint, res.Mode, res.Batch)
	fmt.Fprintf(w, "%-10s %8s %9s %7s %6s %6s %9s %9s %9s %10s %12s\n",
		"phase", "dur", "ok", "shed", "err", "drop", "p50ms", "p99ms", "p999ms", "req/s", "clients/s")
	for i := range res.Phases {
		ps := &res.Phases[i]
		fmt.Fprintf(w, "%-10s %8s %9d %7d %6d %6d %9.3f %9.3f %9.3f %10.0f %12.0f\n",
			ps.Name, ps.Duration.Round(time.Millisecond), ps.OK, ps.Shed, ps.Errors, ps.Dropped,
			ps.P50, ps.P99, ps.P999, ps.Throughput(), ps.ClientRate())
		if ps.FirstError != "" {
			fmt.Fprintf(w, "  first error: %s\n", ps.FirstError)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diaload:", err)
	os.Exit(1)
}
