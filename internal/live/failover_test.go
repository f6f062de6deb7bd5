package live

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"diacap/internal/core"
	"diacap/internal/dia"
	"diacap/internal/dynamic"
	"diacap/internal/shard"
)

// victimServer picks the used server with the fewest clients — a real
// failure target whose death orphans a small, known client set.
func victimServer(loads []int) int {
	victim, best := -1, int(^uint(0)>>1)
	for k, l := range loads {
		if l > 0 && l < best {
			victim, best = k, l
		}
	}
	return victim
}

// nearestFailover is the failover decision these tests hand Failover:
// dynamic.Evacuate with NearestJoin, uncapacitated, moves every client
// of a dead server to its nearest survivor.
func nearestFailover(t testing.TB, in *core.Instance, a core.Assignment, dead ...int) core.Assignment {
	t.Helper()
	ev, err := in.NewEvaluator(a)
	if err != nil {
		t.Fatal(err)
	}
	alive := make([]bool, in.NumServers())
	for k := range alive {
		alive[k] = !slices.Contains(dead, k)
	}
	eff := dynamic.EffectiveCaps(nil, alive, in.NumClients())
	for _, k := range dead {
		if _, err := dynamic.Evacuate(ev, dynamic.NewNearestJoin(in), eff, k, 0); err != nil {
			t.Fatal(err)
		}
	}
	return ev.Assignment()
}

func TestKillMidRunFailover(t *testing.T) {
	// The acceptance scenario: a server dies between two operation
	// waves, the orphaned clients fail over to surviving servers, the
	// offsets are recomputed for the shrunken set, and the run finishes
	// with the consistency property intact on the survivors — every
	// issued op executed exactly once per survivor, zero execution
	// spread, and the reported degraded D matching the recomputed
	// survivor assignment.
	in, a, off := liveInstance(t, 5, 14, 3)
	victim := victimServer(in.Loads(a))
	if victim < 0 {
		t.Fatal("no victim server")
	}
	// δ with headroom above both the pre-failure D and the (empirically
	// larger) post-failover D, so the whole run can stay deadline-clean.
	const delta = 260
	if off.D >= delta {
		t.Fatalf("seed produced D = %v ≥ δ = %v; pick another seed", off.D, delta)
	}
	cluster, err := StartCluster(ClusterConfig{
		Instance:          in,
		Assignment:        a,
		Delta:             delta,
		Offsets:           off,
		LatenessTolerance: 35,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Two waves with a quiet window around the kill: no op is in flight
	// while the failover swaps offsets, which is what lets us assert an
	// exact zero execution spread afterwards.
	nc := in.NumClients()
	var ops []dia.Operation
	for i := 0; i < nc; i++ {
		ops = append(ops, dia.Operation{ID: i, Client: i, IssueTime: 80 + float64(i)*3})
	}
	for i := 0; i < nc; i++ {
		ops = append(ops, dia.Operation{ID: 100 + i, Client: i, IssueTime: 950 + float64(i)*3})
	}

	const killAt = 640 // wave 1 fully drained, wave 2 not yet issued
	post := nearestFailover(t, in, a, victim)
	type killResult struct {
		rep *FailoverReport
		err error
	}
	killCh := make(chan killResult, 1)
	go func() {
		cluster.Clock().SleepUntilVirtual(killAt)
		if err := cluster.Kill(victim); err != nil {
			killCh <- killResult{nil, err}
			return
		}
		rep, err := cluster.Failover(post)
		killCh <- killResult{rep, err}
	}()

	res, err := cluster.RunWorkload(ops)
	if err != nil {
		t.Fatal(err)
	}
	kr := <-killCh
	if kr.err != nil {
		t.Fatalf("kill/failover: %v", kr.err)
	}
	rep := kr.rep

	// The failover report: degraded D equals the evaluator's D of the
	// recomputed survivor assignment, and the dead server is gone from it.
	ev, err := in.NewEvaluator(rep.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.PostD-ev.D()) > 1e-9 {
		t.Fatalf("PostD = %v, want evaluator D %v", rep.PostD, ev.D())
	}
	if rep.PostD >= delta {
		t.Fatalf("post-failover D %v ≥ δ %v; scenario cannot stay clean — pick another seed", rep.PostD, delta)
	}
	if math.Abs(rep.PreD-off.D) > 1e-9 {
		t.Fatalf("PreD = %v, want %v", rep.PreD, off.D)
	}
	for ci, s := range rep.Assignment {
		if s == victim {
			t.Fatalf("client %d still on dead server %d", ci, victim)
		}
	}
	wantOrphans := 0
	for _, s := range a {
		if s == victim {
			wantOrphans++
		}
	}
	if len(rep.Orphans) != wantOrphans {
		t.Fatalf("orphans = %v, want %d clients", rep.Orphans, wantOrphans)
	}
	for _, ci := range rep.Orphans {
		if cluster.Client(ci).Disconnected() {
			t.Fatalf("orphan %d still disconnected after failover", ci)
		}
	}

	// Consistency across the crash: every issued op executed exactly
	// once on every surviving server, no spread, no unfairness, nothing
	// lost or duplicated.
	for k, s := range cluster.servers {
		if k == victim {
			continue
		}
		seen := make(map[int]int)
		for _, rec := range s.Log() {
			seen[rec.Op.OpID]++
		}
		if len(seen) != len(ops) {
			t.Fatalf("survivor %d executed %d distinct ops, want %d", k, len(seen), len(ops))
		}
		for _, op := range ops {
			if seen[op.ID] != 1 {
				t.Fatalf("survivor %d executed op %d %d times", k, op.ID, seen[op.ID])
			}
		}
	}
	if res.OpsLost != 0 {
		t.Fatalf("OpsLost = %d, want 0", res.OpsLost)
	}
	if res.DuplicatesSuppressed != 0 {
		t.Fatalf("DuplicatesSuppressed = %d, want 0", res.DuplicatesSuppressed)
	}
	if res.ExecSpread != 0 {
		t.Fatalf("survivor ExecSpread = %v, want 0", res.ExecSpread)
	}
	if res.PostFailoverExecSpread != 0 || res.PostFailoverOrderInversions != 0 {
		t.Fatalf("post-failover spread/inversions = %v/%d, want 0/0",
			res.PostFailoverExecSpread, res.PostFailoverOrderInversions)
	}
	if res.OrderInversions != 0 {
		t.Fatalf("OrderInversions = %d, want 0", res.OrderInversions)
	}
	if res.ServerLate != 0 || res.ClientLate != 0 {
		t.Fatalf("deadline misses: %d server, %d client", res.ServerLate, res.ClientLate)
	}
	if want := len(ops) * nc; res.UpdatesDelivered != want {
		t.Fatalf("updates = %d, want %d", res.UpdatesDelivered, want)
	}
	if len(res.Failovers) != 1 {
		t.Fatalf("failovers recorded = %d, want 1", len(res.Failovers))
	}
	if rep.WallDuration <= 0 || rep.VirtualEnd < rep.VirtualStart {
		t.Fatalf("implausible failover timing: %+v", rep)
	}
}

// TestFailoverEnactsPlaneDecision deploys a capacitated plane's
// assignment of storm's population and replays storm's kills: after
// each, the cluster enacts the plane's published assignment, and its
// PostD must equal the plane's D bit for bit. The clients join group
// by group, client c in group c mod N for the subtest's N, so each
// subtest deploys a different assignment; N = 1 is ascending id order.
func TestFailoverEnactsPlaneDecision(t *testing.T) {
	sc, err := dynamic.BuildScenario("storm", 1)
	if err != nil {
		t.Fatal(err)
	}
	in := sc.Pop.Instance
	caps := core.UniformCapacities(in.NumServers(), 24)
	for _, groups := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", groups), func(t *testing.T) {
			ctx := context.Background()
			p, err := shard.NewFromPopulation(sc.Pop, shard.Options{Capacities: caps})
			if err != nil {
				t.Fatal(err)
			}
			for g := range groups {
				for c := g; c < in.NumClients(); c += groups {
					if _, err := p.Join(ctx, c); err != nil {
						t.Fatal(err)
					}
				}
			}
			a := p.Current().Assignment
			off, err := in.ComputeOffsets(a)
			if err != nil {
				t.Fatal(err)
			}
			// Launch every client of a server the script kills, so the
			// failovers reconnect real TCP clients, plus client 0.
			launched := []int{0}
			for c, s := range a {
				if c > 0 && slices.ContainsFunc(sc.Kills, func(k dynamic.ServerKill) bool { return k.Server == s }) {
					launched = append(launched, c)
				}
			}
			cluster, err := StartCluster(ClusterConfig{
				Instance: in, Assignment: a, Delta: off.D, Offsets: off, Clients: launched,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()

			reconnected := 0
			for _, k := range sc.Kills {
				if err := cluster.Kill(k.Server); err != nil {
					t.Fatal(err)
				}
				if _, _, err := p.KillServer(ctx, k.Server); err != nil {
					t.Fatal(err)
				}
				snap := p.Current()
				rep, err := cluster.Failover(snap.Assignment)
				if err != nil {
					t.Fatalf("failover after killing server %d: %v", k.Server, err)
				}
				if math.Float64bits(rep.PostD) != math.Float64bits(snap.D) {
					t.Fatalf("kill of server %d: live PostD %v != plane D %v", k.Server, rep.PostD, snap.D)
				}
				if !slices.Equal(rep.Assignment, snap.Assignment) {
					t.Fatalf("kill of server %d: the cluster runs an assignment the plane did not publish", k.Server)
				}
				for _, c := range rep.Orphans {
					if cluster.Client(c).Disconnected() {
						t.Fatalf("orphan %d still disconnected after failover", c)
					}
				}
				reconnected += len(rep.Orphans)
			}
			if reconnected == 0 {
				t.Fatal("no failover reconnected a client; the test exercises nothing")
			}
		})
	}
}

// TestFailoverRejectsForeignDecisions pins what Failover refuses to
// enact: a wrong length, a client left on a dead server, and a client
// moved off a live one. A refusal leaves the cluster as it was.
func TestFailoverRejectsForeignDecisions(t *testing.T) {
	in, a, off := liveInstance(t, 5, 14, 3)
	victim := victimServer(in.Loads(a))
	cluster, err := StartCluster(ClusterConfig{
		Instance: in, Assignment: a, Delta: off.D, Offsets: off, Clients: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Kill(victim); err != nil {
		t.Fatal(err)
	}
	good := nearestFailover(t, in, a, victim)
	stray := good.Clone()
	for c, s := range a {
		if s != victim {
			stray[c] = 3 - s - victim // the third of the three servers
			break
		}
	}
	for _, tc := range []struct {
		name string
		a    core.Assignment
	}{
		{"wrong length", good[:len(good)-1]},
		{"client left on the dead server", a},
		{"client moved off a live server", stray},
	} {
		if _, err := cluster.Failover(tc.a); err == nil {
			t.Fatalf("%s: failover accepted it", tc.name)
		}
		if !slices.Equal(cluster.Assignment(), a) {
			t.Fatalf("%s: a refused failover changed the assignment", tc.name)
		}
	}
	if _, err := cluster.Failover(good); err != nil {
		t.Fatal(err)
	}
}

func TestKillValidation(t *testing.T) {
	in, a, off := liveInstance(t, 4, 12, 2)
	cluster, err := StartCluster(ClusterConfig{
		Instance: in, Assignment: a, Delta: off.D, Offsets: off, Clients: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Kill(99); err == nil {
		t.Fatal("out-of-range kill must fail")
	}
	if _, err := cluster.Failover(a); err == nil {
		t.Fatal("failover without a dead server must fail")
	}
	if err := cluster.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Kill(0); err == nil {
		t.Fatal("double kill must fail")
	}
	if err := cluster.Kill(1); err == nil {
		t.Fatal("killing the last live server must be refused")
	}
	if got := cluster.DeadServers(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("dead servers = %v", got)
	}
}
