package main

// Scenario mode: replay a churn-and-mobility scenario preset (package
// dynamic) instead of the single-assignment pipeline. Without -chaos
// the scenario runs against the pure simulator — an online strategy
// handles every join/leave/kill/drift event and the run reports the
// D-vs-disruption outcome. With -chaos the scenario's population is
// deployed as a live localhost TCP cluster and its correlated-failure
// schedule is replayed for real: a control plane decides every
// placement and evacuation, ServerKills become Kill+Failover calls
// that enact the plane's assignment, and PartitionWindows become
// FaultPlan partitions that cut the TCP links.
//
// Any capacity violation, refused failover, or strategy error exits
// nonzero, which is what the CI chaos-soak job keys on.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"strings"

	"diacap/internal/core"
	"diacap/internal/dia"
	"diacap/internal/dynamic"
	"diacap/internal/live"
	"diacap/internal/obs"
	"diacap/internal/shard"
)

var (
	scenarioKind = flag.String("scenario", "",
		`replay a churn scenario preset: flashcrowd | diurnal | drift | storm | mixed (empty = classic run)`)
	scenarioStrategy = flag.String("strategy", "hysteresis",
		`online policy of -scenario runs, and of the plane that decides -scenario -chaos failovers: nearest | greedy+repair | hysteresis | always-rebalance`)
	scenarioCap = flag.Int("cap", 0,
		"scenario: uniform per-server client capacity (0 = unlimited)")
	scenarioShards = flag.Int("shards", 0,
		"scenario: replay through a sharded control plane with this many shards (0 = unsharded simulator); with -chaos, the shard count of the plane that decides (0 = 1)")
)

// buildScenarioStrategy mirrors the policy ladder of the bench churn
// study, so CLI runs and the golden Pareto figure describe the same
// policies.
func buildScenarioStrategy(label string, in *core.Instance) (dynamic.Strategy, error) {
	// Any positive virtual-time gap exceeds this period, so the
	// reoptimizer fires on every event (period <= 0 would fall back to
	// the 500ms default).
	const everyEvent = 1e-6
	switch label {
	case "nearest":
		return dynamic.NewNearestJoin(in), nil
	case "greedy+repair":
		return dynamic.NewGreedyJoinRepair(in, 2), nil
	case "hysteresis":
		return dynamic.NewHysteresis(
			dynamic.NewPeriodicReoptimize(in, everyEvent),
			1,    // ≥ 1 virtual ms absolute gain
			0.05, // and ≥ 5% relative gain
			dynamic.NewMigrationBudget(3, 6)), nil
	case "always-rebalance":
		return dynamic.NewPeriodicReoptimize(in, everyEvent), nil
	default:
		return nil, fmt.Errorf("unknown scenario strategy %q (want nearest | greedy+repair | hysteresis | always-rebalance)", label)
	}
}

// runScenario is the -scenario entry point; it dispatches to the pure
// simulator or, with -chaos, to a live-cluster replay.
func runScenario(kind string, seed int64, deltaFactor float64, numOps int, interval float64, reg *obs.Registry) error {
	sc, err := dynamic.BuildScenario(kind, seed)
	if err != nil {
		return err
	}
	in := sc.Pop.Instance
	fmt.Printf("scenario %s: %d nodes, %d servers, %d clients, horizon %.0fms (seed %d)\n",
		sc.Name, len(sc.Pop.Coords), in.NumServers(), in.NumClients(), sc.Horizon, seed)
	fmt.Printf("script: %d churn events, %d kills, %d partition windows, %d drift snapshots\n",
		len(sc.Events), len(sc.Kills), len(sc.Partitions), len(sc.Snapshots))

	if *chaosMode {
		return runScenarioChaos(sc, seed, deltaFactor, numOps, interval, reg)
	}
	if *scenarioShards > 0 {
		return runScenarioSharded(sc, reg)
	}
	return runScenarioSim(sc)
}

// scenarioCaps is the -cap flag as a uniform capacity vector over the
// scenario's servers (nil = unlimited).
func scenarioCaps(sc *dynamic.Scenario) core.Capacities {
	if *scenarioCap <= 0 {
		return nil
	}
	return core.UniformCapacities(len(sc.Pop.Servers), *scenarioCap)
}

// newScenarioPlane builds the control plane over the scenario's
// population: the -strategy policy and the -cap capacities.
func newScenarioPlane(sc *dynamic.Scenario, shards int, reg *obs.Registry) (*shard.Plane, error) {
	strat, err := buildScenarioStrategy(*scenarioStrategy, sc.Pop.Instance)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		shard.Preregister(reg)
	}
	return shard.NewFromPopulation(sc.Pop, shard.Options{
		Shards:     shards,
		Capacities: scenarioCaps(sc),
		Metrics:    reg,
		Strategy:   strat,
	})
}

// runScenarioSharded replays the scenario through the assignment
// control plane: every event publishes a fresh epoch, and the shards
// group the clients by cell for the event spread. The plane decides
// what the simulator decides, so the lines both print match at every
// shard count.
func runScenarioSharded(sc *dynamic.Scenario, reg *obs.Registry) error {
	p, err := newScenarioPlane(sc, *scenarioShards, reg)
	if err != nil {
		return err
	}
	fmt.Printf("strategy: %s, %d shards over %d cells\n\n",
		*scenarioStrategy, p.NumShards(), p.NumCells())

	res, err := p.Replay(context.Background(), sc)
	if err != nil {
		return scenarioError(err)
	}
	printScenarioReport(&res.ScenarioResult,
		fmt.Sprintf("shard event spread:       %v", res.ShardEvents),
		fmt.Sprintf("published epochs:         %d", res.FinalEpoch),
		fmt.Sprintf("certified D bound:        final %.3f ms (max observed gap %.3f ms)",
			res.FinalCertifiedD, res.MaxCertGap))
	return nil
}

// runScenarioSim replays the scenario against the pure simulator under
// the selected online strategy.
func runScenarioSim(sc *dynamic.Scenario) error {
	strat, err := buildScenarioStrategy(*scenarioStrategy, sc.Pop.Instance)
	if err != nil {
		return err
	}
	fmt.Printf("strategy: %s\n\n", strat.Name())

	res, err := dynamic.SimulateScenario(sc, scenarioCaps(sc), strat)
	if err != nil {
		return scenarioError(err)
	}
	printScenarioReport(res)
	return nil
}

// scenarioError names a capacity exhaustion by what ran out of room: a
// kill the plane committed with clients it had to detach, an
// evacuation the simulator could not finish, or a refused join.
func scenarioError(err error) error {
	if !errors.Is(err, dynamic.ErrCapacityExhausted) {
		return err
	}
	var evac *shard.EvacuationError
	switch {
	case errors.As(err, &evac):
		return fmt.Errorf("capacity exhausted mid-scenario (no panic, no overload — the kill of server %d committed and detached %d clients): %w",
			evac.Server, len(evac.Detached), err)
	case strings.Contains(err.Error(), "forced rejoin"): // the simulator's word for an evacuee
		return fmt.Errorf("capacity exhausted mid-scenario (no panic, no overload — a killed server's client found no seat): %w", err)
	default:
		return fmt.Errorf("capacity exhausted mid-scenario (no panic, no overload — the join was refused): %w", err)
	}
}

// printScenarioReport prints the outcome of a scenario replay: the
// lines the simulator and the plane share, then planeLines.
func printScenarioReport(res *dynamic.ScenarioResult, planeLines ...string) {
	fmt.Printf("joins / leaves:           %d / %d\n", res.Joins, res.Leaves)
	fmt.Printf("repair moves:             %d (strategy-chosen reassignments)\n", res.RepairMoves)
	fmt.Printf("forced moves:             %d (failover evacuations)\n", res.ForcedMoves)
	if res.SuppressedProposals > 0 || res.SuppressedMoves > 0 {
		fmt.Printf("hysteresis suppressed:    %d proposals (%d migrations held back)\n",
			res.SuppressedProposals, res.SuppressedMoves)
	}
	if res.KillsApplied > 0 || res.Restarts > 0 {
		fmt.Printf("kills / restarts:         %d / %d\n", res.KillsApplied, res.Restarts)
	}
	if res.DriftSteps > 0 {
		fmt.Printf("drift re-materializations: %d\n", res.DriftSteps)
	}
	fmt.Printf("interactivity D:          time-avg %.3f ms, max %.3f ms, final %.3f ms\n",
		res.TimeAvgD, res.MaxD, res.FinalD)
	for _, l := range planeLines {
		fmt.Println(l)
	}
	fmt.Println("\nresult: OK — capacity invariant held at every event")
}

// runScenarioChaos deploys the scenario population as a live TCP
// cluster and replays its failure schedule. A plane (max(1, -shards)
// shards) joins the population in ascending id and decides every
// evacuation: a kill is Kill on the cluster, KillServer on the plane,
// then Failover onto the plane's assignment. Partition windows become
// FaultPlan link cuts. The workload is shifted by the same warmup the
// classic chaos mode uses so the kill schedule lands inside the run.
func runScenarioChaos(sc *dynamic.Scenario, seed int64, deltaFactor float64, numOps int, interval float64, reg *obs.Registry) error {
	in := sc.Pop.Instance
	p, err := newScenarioPlane(sc, max(1, *scenarioShards), reg)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for c := 0; c < in.NumClients(); c++ {
		if _, err := p.Join(ctx, c); err != nil {
			return fmt.Errorf("joining the population: %w", err)
		}
	}
	a := p.Current().Assignment
	off, err := in.ComputeOffsets(a)
	if err != nil {
		return err
	}
	delta := off.D * deltaFactor
	fmt.Printf("strategy: %s, %d shards over %d cells\n", *scenarioStrategy, p.NumShards(), p.NumCells())

	const warmup = 100.0 // virtual ms before the first issue
	plan := &live.FaultPlan{
		Seed:    seed,
		Default: live.LinkFaults{DropProb: *chaosDrop, DupProb: *chaosDup, JitterMs: *linkJit},
	}
	for _, w := range sc.Partitions {
		isolated := make(map[int]bool, len(w.Servers))
		for _, s := range w.Servers {
			isolated[s] = true
		}
		var rest []int
		for k := 0; k < in.NumServers(); k++ {
			if !isolated[k] {
				rest = append(rest, k)
			}
		}
		plan.Partitions = append(plan.Partitions, live.Partition{
			A: w.Servers, B: rest, From: w.Start + warmup, Until: w.End + warmup,
		})
	}

	cluster, err := live.StartCluster(live.ClusterConfig{
		Instance:            in,
		Assignment:          a,
		Delta:               delta,
		Offsets:             off,
		Faults:              plan,
		Metrics:             reg,
		ReconnectJitterSeed: seed,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	rng := rand.New(rand.NewSource(seed))
	ops := dia.PoissonWorkload(rng, in.NumClients(), numOps, interval)
	for i := range ops {
		ops[i].IssueTime += warmup
	}

	fmt.Printf("chaos: live cluster up — δ=%.3fms (D=%.3fms), replaying %d scheduled kills\n",
		delta, off.D, len(sc.Kills))

	// The kill goroutine walks the scenario's failure schedule in order:
	// the plane evacuates each killed server and the cluster enacts the
	// result. Restarts are not replayed: the live harness keeps a killed
	// server down, which only makes the test stricter (survivor D stays
	// degraded).
	replayKills := func() error {
		for _, k := range sc.Kills {
			cluster.Clock().SleepUntilVirtual(k.Time + warmup)
			if err := cluster.Kill(k.Server); err != nil {
				return fmt.Errorf("kill server %d: %w", k.Server, err)
			}
			if _, _, err := p.KillServer(ctx, k.Server); err != nil {
				return fmt.Errorf("plane kill of server %d: %w", k.Server, scenarioError(err))
			}
			rep, err := cluster.Failover(p.Current().Assignment)
			if err != nil {
				return fmt.Errorf("failover after killing server %d: %w", k.Server, err)
			}
			fmt.Printf("chaos: t=%.0fms killed server %d — %d orphans reconnected, D %.3f→%.3fms\n",
				k.Time+warmup, k.Server, len(rep.Orphans), rep.PreD, rep.PostD)
		}
		return nil
	}
	killCh := make(chan error, 1)
	go func() { killCh <- replayKills() }()

	res, err := cluster.RunWorkload(ops)
	if err != nil {
		return err
	}
	if err := <-killCh; err != nil {
		return fmt.Errorf("scenario chaos: %w", err)
	}

	// Every failover ran the plane's assignment, so the survivors' D is
	// the plane's.
	postD := p.Current().D
	health := cluster.HealthSnapshot()
	fmt.Printf("\noperations issued:        %d\n", res.OpsIssued)
	fmt.Printf("executions (op×server):   %d\n", res.Executions)
	fmt.Printf("updates (op×client):      %d\n", res.UpdatesDelivered)
	fmt.Printf("ops lost:                 %d\n", res.OpsLost)
	fmt.Printf("late at server / client:  %d / %d\n", res.ServerLate, res.ClientLate)
	fmt.Printf("injected faults:          %d dropped, %d duplicated\n",
		res.Faults.MessagesDropped, res.Faults.MessagesDuplicated)
	fmt.Printf("health telemetry:         %d reconnect dials, %d failovers, max lag spread %.3f ms\n",
		health.ReconnectAttempts, health.Failovers, health.MaxLagSpread)
	fmt.Printf("minimum feasible lag:     D=%.3fms initial → D=%.3fms on survivors (δ = %.3f ms)\n",
		off.D, postD, delta)

	switch {
	case len(sc.Kills) == 0 && res.OpsLost == 0:
		fmt.Println("\nresult: CLEAN — no failures scripted, no op lost")
	case res.OpsLost == 0 && postD <= delta:
		fmt.Println("\nresult: RECOVERED — survivors consistent after every scripted failure, no op lost")
	case postD > delta:
		fmt.Println("\nresult: DEGRADED — survivor D exceeds δ; rerun with a larger -delta-factor to restore the guarantee")
	default:
		fmt.Println("\nresult: DEGRADED — see ops lost above")
	}
	return nil
}
