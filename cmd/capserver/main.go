// Command capserver serves the client assignment system over HTTP/JSON —
// the form in which a matchmaker or connection broker would consume it.
//
// Usage:
//
//	capserver -addr :8080 -metrics-addr :9090
//
//	curl -s localhost:8080/v1/algorithms
//	curl -s -X POST localhost:8080/v1/assign -d '{
//	    "matrix": [[0,10,20],[10,0,15],[20,15,0]],
//	    "servers": [0],
//	    "algorithm": "Greedy",
//	    "includeOffsets": true
//	}'
//	curl -s localhost:9090/metrics
//
// With -plane the assignment control plane also mounts the zero-alloc
// serving endpoints /v1/assign-one and /v1/assign-batch: lock-free
// snapshot reads answering "which server should this prospective client
// attach to", one admission decision and one perfkit evaluation per
// request no matter how many clients the batch carries (cmd/diaload
// load-tests them; see DESIGN.md §17 for the protocol):
//
//	capserver -plane &
//	curl -s -X POST localhost:8080/v1/assign-batch -d '{
//	    "coords": [[12.5, 37.25], [40, 80, 1, 0.5]]
//	}'
//
// Observability flags:
//
//	-metrics-addr  serve /metrics (Prometheus text) and /debug/vars
//	               (JSON) on a dedicated listener; both are also mounted
//	               on the main listener
//	-pprof         mount net/http/pprof under /debug/pprof/ (opt-in)
//	-log-level     debug | info | warn | error
//	-trace-sample  fraction of requests to trace (0 = off, 1 = all).
//	               Traced responses carry X-Diacap-Trace; span trees are
//	               served at /debug/trace?trace=<id>. The same tracer is
//	               shared with the shard plane, so a traced
//	               /v1/shard/assign attributes latency down to individual
//	               evaluator deltas.
//
// The flight recorder is always on: ring-buffer journals of requests,
// admission transitions, failovers, epoch bumps, and suppressed repairs
// are served at /debug/flight and dumped to stderr on admission-shed
// entry, shard-plane server kills, and SIGQUIT.
//
//	-live n        also boot a demo live TCP cluster over a synthetic
//	               n-node latency matrix and drive a background workload,
//	               so the diacap_live_* telemetry and the /healthz
//	               cluster section carry real values; the assignment
//	               endpoints are then admission-gated on cluster health
//	               (429 + Retry-After under churn, a fresh answer
//	               otherwise)
//	-drain-timeout grace period for in-flight requests on shutdown:
//	               SIGTERM/SIGINT closes the listener immediately and
//	               drains what is already being handled
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"diacap/internal/assign"
	"diacap/internal/core"
	"diacap/internal/latency"
	"diacap/internal/live"
	"diacap/internal/obs"
	"diacap/internal/placement"
	"diacap/internal/service"
	"diacap/internal/shard"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		maxNodes     = flag.Int("max-nodes", 2048, "largest accepted matrix")
		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "handling deadline of the solver routes /v1/assign, /v1/assign-coords and /v1/placement (503 JSON on expiry); the other routes run inline (0 = unlimited)")
		metricsAddr  = flag.String("metrics-addr", "", "extra listener for /metrics and /debug/vars (empty = main listener only)")
		pprofFlag    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logLevel     = flag.String("log-level", "info", "log level: debug | info | warn | error")
		liveNodes    = flag.Int("live", 0, "boot a demo live cluster over a synthetic n-node matrix (0 = off)")
		planeFlag    = flag.Bool("plane", false, "front a demo assignment control plane over a synthetic 8-server/400-client population")
		traceSample  = flag.Float64("trace-sample", 0, "fraction of requests to trace (0 = off, 1 = all); span trees at /debug/trace")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests on SIGTERM/SIGINT")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel)
	if err != nil {
		fatal(err)
	}
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	service.PreregisterMetrics(reg)
	live.PreregisterMetrics(reg)

	// The flight recorder is always on; automatic dumps (admission-shed
	// entry, server kills, SIGQUIT) go to stderr.
	flight := obs.NewRecorder(0)
	flight.SetDumpWriter(os.Stderr)
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			flight.Dump("sigquit")
		}
	}()

	var tracer *obs.Tracer
	if *traceSample > 0 {
		tracer = obs.NewTracer(obs.TracerOptions{SampleRate: *traceSample, Metrics: reg})
		logger.Info("request tracing on", "sampleRate", *traceSample)
	}

	opts := service.Options{
		MaxNodes:       *maxNodes,
		RequestTimeout: *reqTimeout,
		DrainTimeout:   *drainTimeout,
		Metrics:        reg,
		Logger:         logger,
		EnablePprof:    *pprofFlag,
		Tracer:         tracer,
		Flight:         flight,
	}
	if *liveNodes > 0 {
		cluster, stopWorkload, err := startDemoCluster(*liveNodes, reg, flight, tracer, logger)
		if err != nil {
			fatal(err)
		}
		defer stopWorkload()
		defer cluster.Close()
		// Fronting a real cluster also gates assignment work on its
		// health, so a churn storm sheds load instead of piling fresh
		// computations onto a cluster mid-failover.
		opts.Live = cluster
	}
	if *planeFlag {
		shard.Preregister(reg)
		const demoServers, demoClients = 8, 400
		cs, err := latency.GenerateCoords(latency.DefaultConfig(demoServers+demoClients), 1)
		if err != nil {
			fatal(err)
		}
		plane, err := shard.New(shard.Options{
			Servers: cs[:demoServers],
			Clients: cs[demoServers:],
			Metrics: reg,
			Tracer:  tracer,
			Flight:  flight,
		})
		if err != nil {
			fatal(err)
		}
		opts.Shard = plane
		logger.Info("control plane ready",
			"servers", plane.NumServers(), "clients", plane.NumClients())
	}
	svc := service.New(opts)

	// SIGTERM is what init systems and container runtimes send; treating
	// only ^C as graceful would make every orchestrated stop abrupt.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	logger.Info("capserver listening", "addr", ln.Addr().String(), "version", obs.BuildVersion())

	var metricsSrv *http.Server
	metricsErr := make(chan error, 1)
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/debug/vars", reg.VarsHandler())
		metricsSrv = &http.Server{Addr: *metricsAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() { metricsErr <- metricsSrv.ListenAndServe() }()
		logger.Info("metrics listening", "addr", *metricsAddr)
	}

	// Serve blocks until the signal context fires, then drains in-flight
	// requests for up to -drain-timeout before returning.
	if err := svc.Serve(ctx, ln); err != nil {
		fatal(err)
	}
	if metricsSrv != nil {
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = metricsSrv.Shutdown(shCtx)
		select {
		case err := <-metricsErr:
			if err != nil && err != http.ErrServerClosed {
				fatal(err)
			}
		default:
		}
	}
}

// startDemoCluster boots a small live TCP cluster on localhost over a
// synthetic n-node matrix — K-center server placement, Greedy
// assignment, δ = D — and drives a background operation workload so the
// live telemetry (per-server executions, lag spread, RTT) moves. The
// returned stop function ends the workload goroutine.
func startDemoCluster(n int, reg *obs.Registry, flight *obs.Recorder, tracer *obs.Tracer, logger *slog.Logger) (*live.Cluster, func(), error) {
	if n < 4 {
		return nil, nil, fmt.Errorf("capserver: -live %d nodes, want >= 4", n)
	}
	const seed = 1
	numServers := n / 4
	if numServers < 2 {
		numServers = 2
	}
	m := latency.ScaledLike(n, seed)
	servers, err := placement.Place(placement.KCenterB, m, numServers, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, err
	}
	clients := make([]int, n)
	for i := range clients {
		clients[i] = i
	}
	in, err := core.NewInstanceTrusted(m, servers, clients)
	if err != nil {
		return nil, nil, err
	}
	a, err := assign.Greedy{}.Assign(in, nil)
	if err != nil {
		return nil, nil, err
	}
	off, err := in.ComputeOffsets(a)
	if err != nil {
		return nil, nil, err
	}
	cluster, err := live.StartCluster(live.ClusterConfig{
		Instance:            in,
		Assignment:          a,
		Delta:               off.D,
		Offsets:             off,
		Metrics:             reg,
		Flight:              flight,
		ReconnectJitterSeed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	logger.Info("demo live cluster up",
		"nodes", n, "servers", numServers, "deltaMs", off.D)

	done := make(chan struct{})
	go func() {
		// A gentle steady workload: one op per client per second, enough
		// to keep every live metric moving without loading the host.
		opID := 0
		ticker := time.NewTicker(time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				// One traced op per tick (when tracing is on) keeps the
				// live ops journal and cross-layer traces populated
				// without tracing the whole workload.
				_, tsp := tracer.Root(context.Background(), "demo.tick")
				tp := ""
				if tsp != nil {
					tp = tsp.Context().Traceparent()
				}
				for i, ci := range clients {
					if c := cluster.Client(ci); c != nil {
						if i == 0 && tp != "" {
							c.IssueTraced(opID, tp)
						} else {
							c.Issue(opID)
						}
						opID++
					}
				}
				tsp.End()
			}
		}
	}()
	return cluster, func() { close(done) }, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "capserver:", err)
	os.Exit(1)
}
