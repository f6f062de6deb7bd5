package main

// Chaos mode: instead of the discrete-event simulation, deploy the
// instance as a live localhost TCP cluster, kill one server mid-run,
// fail the orphaned clients over to the survivors, and report the
// degraded guarantees — the paper's architecture under a real fault.
// dynamic.Evacuate with the nearest-survivor policy decides where the
// orphans go; the cluster only enacts that decision.

import (
	"flag"
	"fmt"
	"math/rand"
	"sort"

	"diacap/internal/core"
	"diacap/internal/dia"
	"diacap/internal/dynamic"
	"diacap/internal/live"
	"diacap/internal/obs"
)

var (
	chaosMode = flag.Bool("chaos", false, "run a live TCP cluster, kill a server mid-run, and fail over")
	chaosKill = flag.Int("kill", -1, "chaos: server to kill (-1 = the used server with the fewest clients)")
	killAt    = flag.Float64("kill-at", -1, "chaos: virtual time of the kill in ms (-1 = 60% through the workload)")
	chaosDrop = flag.Float64("drop", 0, "chaos: per-link message drop probability")
	chaosDup  = flag.Float64("dup", 0, "chaos: per-link message duplication probability")
	linkJit   = flag.Float64("link-jitter", 0, "chaos: max extra per-message delay in virtual ms")
)

func runChaos(in *core.Instance, a core.Assignment, off *core.Offsets, delta float64, seed int64, numOps int, interval float64, metrics *obs.Registry) error {
	loads := in.Loads(a)
	victim := *chaosKill
	if victim < 0 {
		for k, l := range loads {
			if l > 0 && (victim < 0 || l < loads[victim]) {
				victim = k
			}
		}
	}
	if victim < 0 || victim >= in.NumServers() {
		return fmt.Errorf("chaos: bad kill target %d", victim)
	}

	rng := rand.New(rand.NewSource(seed))
	ops := dia.PoissonWorkload(rng, in.NumClients(), numOps, interval)
	const warmup = 100.0 // virtual ms before the first issue
	span := 0.0
	for i := range ops {
		ops[i].IssueTime += warmup
		if ops[i].IssueTime > span {
			span = ops[i].IssueTime
		}
	}
	kill := *killAt
	if kill < 0 {
		kill = warmup + 0.6*(span-warmup)
	}

	// The failover decision, uncapacitated: a matrix instance has no
	// coordinates to build a plane from.
	ev, err := in.NewEvaluator(a)
	if err != nil {
		return err
	}
	alive := make([]bool, in.NumServers())
	for k := range alive {
		alive[k] = k != victim
	}
	if _, err := dynamic.Evacuate(ev, dynamic.NewNearestJoin(in), dynamic.EffectiveCaps(nil, alive, in.NumClients()), victim, kill); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}

	var plan *live.FaultPlan
	if *chaosDrop > 0 || *chaosDup > 0 || *linkJit > 0 {
		plan = &live.FaultPlan{
			Seed:    seed,
			Default: live.LinkFaults{DropProb: *chaosDrop, DupProb: *chaosDup, JitterMs: *linkJit},
		}
	}
	cluster, err := live.StartCluster(live.ClusterConfig{
		Instance:   in,
		Assignment: a,
		Delta:      delta,
		Offsets:    off,
		Faults:     plan,
		Metrics:    metrics,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	fmt.Printf("chaos: live cluster up — %d servers, %d clients, δ=%.3fms (D=%.3fms)\n",
		in.NumServers(), in.NumClients(), delta, off.D)
	fmt.Printf("chaos: killing server %d (%d clients) at t=%.0fms\n", victim, loads[victim], kill)

	type chaosOutcome struct {
		rep *live.FailoverReport
		err error
	}
	killCh := make(chan chaosOutcome, 1)
	go func() {
		cluster.Clock().SleepUntilVirtual(kill)
		if err := cluster.Kill(victim); err != nil {
			killCh <- chaosOutcome{nil, err}
			return
		}
		rep, err := cluster.Failover(ev.Assignment())
		killCh <- chaosOutcome{rep, err}
	}()

	res, err := cluster.RunWorkload(ops)
	if err != nil {
		return err
	}
	out := <-killCh
	if out.err != nil {
		return fmt.Errorf("chaos: kill/failover: %w", out.err)
	}
	rep := out.rep

	fmt.Printf("\nfailover: dead=%v, %d orphans reconnected in %v (virtual %.0f→%.0fms)\n",
		rep.Dead, len(rep.Orphans), rep.WallDuration.Round(0), rep.VirtualStart, rep.VirtualEnd)
	fmt.Printf("minimum feasible lag:     D=%.3fms pre-failure → D=%.3fms on survivors", rep.PreD, rep.PostD)
	if rep.PostD > delta {
		fmt.Printf(" — ABOVE δ; guarantee degraded, late executions expected")
	}
	fmt.Println()
	newLoads := in.Loads(rep.Assignment)
	var parts []string
	for k, l := range newLoads {
		parts = append(parts, fmt.Sprintf("s%d:%d", k, l))
	}
	sort.Strings(parts)
	fmt.Printf("survivor loads:           %v\n", parts)

	fmt.Printf("\noperations issued:        %d\n", res.OpsIssued)
	fmt.Printf("executions (op×server):   %d\n", res.Executions)
	fmt.Printf("updates (op×client):      %d\n", res.UpdatesDelivered)
	fmt.Printf("late at server (i):       %d\n", res.ServerLate)
	fmt.Printf("late at client (ii):      %d\n", res.ClientLate)
	fmt.Printf("ops lost:                 %d\n", res.OpsLost)
	fmt.Printf("duplicates suppressed:    %d\n", res.DuplicatesSuppressed)
	if plan != nil {
		fmt.Printf("injected faults:          %d dropped, %d duplicated\n",
			res.Faults.MessagesDropped, res.Faults.MessagesDuplicated)
	}
	fmt.Printf("exec spread (survivors):  %.3f ms (post-failover ops: %.3f ms)\n",
		res.ExecSpread, res.PostFailoverExecSpread)
	fmt.Printf("order inversions:         %d (post-failover ops: %d)\n",
		res.OrderInversions, res.PostFailoverOrderInversions)
	fmt.Printf("interaction time:         mean %.3f ms, max %.3f ms (δ = %.3f ms)\n",
		res.MeanInteraction, res.MaxInteraction, delta)

	switch {
	case res.OpsLost == 0 && res.PostFailoverExecSpread == 0 && rep.PostD <= delta:
		fmt.Println("\nresult: RECOVERED — survivors consistent after failover, no op lost")
	case rep.PostD > delta:
		fmt.Println("\nresult: DEGRADED — survivor D exceeds δ; rerun with a larger -delta-factor to restore the guarantee")
	default:
		fmt.Println("\nresult: DEGRADED — see ops lost / spread above")
	}
	return nil
}
