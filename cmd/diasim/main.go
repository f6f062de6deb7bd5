// Command diasim runs the continuous-DIA discrete-event simulation: it
// computes an assignment, derives the Section II-C simulation-time
// offsets, executes the full operation pipeline (issue → forward →
// constant-lag execution → state update), and reports consistency,
// fairness, and interaction-time observations.
//
// The central experiment of the paper's analysis is directly visible:
// with -delta-factor 1 (δ = D) the run is clean and every interaction
// takes exactly δ; with -delta-factor 0.9 the consistency/fairness
// constraints are violated.
//
// Usage:
//
//	diasim -preset 200 -servers 8 -alg Distributed-Greedy
//	diasim -preset 200 -servers 8 -delta-factor 0.9
//	diasim -preset 200 -servers 8 -jitter 0.3
//
// With -chaos the instance is instead deployed as a live localhost TCP
// cluster (package live); one server is killed mid-run, its clients
// are placed on their nearest survivors (dynamic.Evacuate), and the
// cluster enacts that failover, reporting the degraded guarantees:
//
//	diasim -preset 30 -servers 3 -ops 60 -interval 10 -delta-factor 1.3 -chaos
//	diasim -preset 30 -servers 3 -ops 60 -chaos -kill 2 -drop 0.05
//
// With -scenario the run instead replays a seeded churn-and-mobility
// preset (flash crowds, diurnal waves, coordinate drift, correlated
// failure storms) against an online strategy, reporting the
// D-vs-disruption outcome; -scenario with -chaos deploys the scenario
// population as a live cluster and replays its kill and partition
// schedule over real TCP, every placement and evacuation decided by a
// control plane (-strategy, -cap) and enacted by the cluster:
//
//	diasim -scenario flashcrowd -strategy hysteresis
//	diasim -scenario storm -strategy always-rebalance -cap 30
//	diasim -scenario flashcrowd -chaos -delta-factor 1.3
//	diasim -scenario storm -chaos -cap 24
//
// Observability: -trace-algo logs every assignment-algorithm step (the
// Greedy batch picks, the Distributed-Greedy D trajectory, annealing
// temperatures); -metrics-addr serves /metrics and /debug/vars for the
// duration of the run; -pprof adds /debug/pprof/ to that listener.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"

	"diacap/internal/assign"
	"diacap/internal/core"
	"diacap/internal/dia"
	"diacap/internal/latency"
	"diacap/internal/obs"
	"diacap/internal/placement"
	"diacap/internal/sim"
)

func main() {
	var (
		preset      = flag.String("preset", "200", `data set: "meridian", "mit", or a node count`)
		seed        = flag.Int64("seed", 1, "random seed")
		strategy    = flag.String("placement", "k-center-b", "server placement: random | k-center-a | k-center-b")
		servers     = flag.Int("servers", 8, "number of servers")
		algName     = flag.String("alg", "Greedy", "assignment algorithm name")
		deltaFactor = flag.Float64("delta-factor", 1.0, "execution lag as a multiple of D")
		ops         = flag.Int("ops", 500, "number of operations")
		interval    = flag.Float64("interval", 2, "mean operation inter-arrival (ms)")
		jitter      = flag.Float64("jitter", 0, "lognormal latency jitter sigma (0 = none)")
		repair      = flag.String("repair", "none", `late-operation policy: "none", "timewarp", or "tss"`)
		logLevel    = flag.String("log-level", "info", "log level: debug | info | warn | error")
		traceAlgo   = flag.Bool("trace-algo", false, "log every assignment-algorithm step (implies -log-level debug)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug/vars on this address for the run's duration")
		pprofFlag   = flag.Bool("pprof", false, "with -metrics-addr, also mount /debug/pprof/")
	)
	flag.Parse()
	repairMode, err := parseRepair(*repair)
	if err != nil {
		fatal(err)
	}
	if *traceAlgo {
		// Trace events log at debug; asking for the trace means asking
		// to see it.
		*logLevel = "debug"
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel)
	if err != nil {
		fatal(err)
	}
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		obs.RegisterRuntime(reg)
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/debug/vars", reg.VarsHandler())
		if *pprofFlag {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				logger.Error("metrics listener failed", "addr", *metricsAddr, "error", err)
			}
		}()
		logger.Info("metrics listening", "addr", *metricsAddr)
	}

	if *scenarioKind != "" {
		// Scenario mode replays a churn-and-mobility preset; it builds its
		// own population, so -preset/-placement/-alg do not apply.
		if err := runScenario(*scenarioKind, *seed, *deltaFactor, *ops, *interval, reg); err != nil {
			fatal(err)
		}
		return
	}

	m, err := loadMatrix(*preset, *seed)
	if err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed))
	placed, err := placement.Place(placement.Strategy(*strategy), m, *servers, rng)
	if err != nil {
		fatal(err)
	}
	clients := make([]int, m.Len())
	for i := range clients {
		clients[i] = i
	}
	in, err := core.NewInstanceTrusted(m, placed, clients)
	if err != nil {
		fatal(err)
	}
	alg, err := assign.ByName(*algName)
	if err != nil {
		fatal(err)
	}
	var hook obs.AlgoTrace
	if *traceAlgo {
		hook = obs.LogTrace(logger)
	}
	if reg != nil {
		hook = obs.Tee(hook, obs.MetricsTrace(reg))
	}
	if hook != nil {
		traced, ok := assign.WithTrace(alg, hook)
		if ok {
			alg = traced
		} else if *traceAlgo {
			logger.Warn("algorithm does not support tracing", "algorithm", alg.Name())
		}
	}
	a, err := alg.Assign(in, nil)
	if err != nil {
		fatal(err)
	}
	off, err := in.ComputeOffsets(a)
	if err != nil {
		fatal(err)
	}
	delta := off.D * *deltaFactor

	if *chaosMode {
		if err := runChaos(in, a, off, delta, *seed, *ops, *interval, reg); err != nil {
			fatal(err)
		}
		return
	}

	cfg := dia.Config{
		Instance:   in,
		Assignment: a,
		Delta:      delta,
		Offsets:    off,
		Workload:   dia.PoissonWorkload(rng, in.NumClients(), *ops, *interval),
		Repair:     repairMode,
	}
	if *jitter > 0 {
		cfg.Latency = sim.JitteredLatency(m, *jitter, rand.New(rand.NewSource(*seed+1)))
	}

	fmt.Printf("nodes=%d servers=%d alg=%s D=%.3fms delta=%.3fms (%.2f·D) ops=%d jitter=%.2f\n",
		m.Len(), *servers, alg.Name(), off.D, delta, *deltaFactor, *ops, *jitter)

	res, err := dia.Run(cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("\noperations issued:        %d\n", res.OpsIssued)
	fmt.Printf("executions (op×server):   %d\n", res.Executions)
	fmt.Printf("updates (op×client):      %d\n", res.UpdatesDelivered)
	fmt.Printf("late at server (i):       %d (max lateness %.3f ms)\n", res.ServerLate, res.MaxServerLateness)
	fmt.Printf("late at client (ii):      %d (max lateness %.3f ms)\n", res.ClientLate, res.MaxClientLateness)
	fmt.Printf("consistency violations:   %d\n", res.ConsistencyViolations)
	fmt.Printf("fairness violations:      %d\n", res.FairnessViolations)
	fmt.Printf("state mismatches:         %d server, %d client\n",
		res.ServerStateMismatches, res.ClientStateMismatches)
	if repairMode != dia.RepairNone {
		fmt.Printf("repair (%s):         %d rollbacks (%d ops re-executed, max depth %.3f ms), %d client artifacts\n",
			*repair, res.Rollbacks, res.RolledBackOps, res.MaxRollbackDepth, res.ClientArtifacts)
	}
	fmt.Printf("interaction time:         mean %.3f ms, max %.3f ms (δ = %.3f ms)\n",
		res.MeanInteraction, res.MaxInteraction, delta)
	switch {
	case res.Clean() && repairMode == dia.RepairTSS:
		fmt.Println("\nresult: CLEAN — trailing state consistent and fair; interactions optimistic (≤ δ)")
	case res.Clean():
		fmt.Println("\nresult: CLEAN — consistency and fairness preserved, all interactions at δ")
	default:
		fmt.Println("\nresult: VIOLATIONS — δ below the feasible minimum (or jitter exceeded the model)")
	}
}

func parseRepair(s string) (dia.RepairMode, error) {
	switch s {
	case "none":
		return dia.RepairNone, nil
	case "timewarp":
		return dia.RepairTimewarp, nil
	case "tss":
		return dia.RepairTSS, nil
	default:
		return dia.RepairNone, fmt.Errorf("unknown repair policy %q", s)
	}
}

func loadMatrix(preset string, seed int64) (latency.Matrix, error) {
	switch preset {
	case "meridian":
		return latency.MeridianLike(seed), nil
	case "mit":
		return latency.MITLike(seed), nil
	default:
		var n int
		if _, err := fmt.Sscanf(preset, "%d", &n); err != nil || n < 4 {
			return nil, fmt.Errorf("bad preset %q", preset)
		}
		return latency.ScaledLike(n, seed), nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diasim:", err)
	os.Exit(1)
}
