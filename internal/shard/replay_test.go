package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"

	"diacap/internal/core"
	"diacap/internal/dynamic"
	"diacap/internal/latency"
	"diacap/internal/shard"
)

// replayStrategies names the anchor's four online strategies, with
// diasim's labels. A plane owns its strategy, and hysteresis and
// periodic strategies keep state, so every run builds a fresh one.
var replayStrategies = []struct {
	name string
	make func() dynamic.Strategy
}{
	{"greedy", func() dynamic.Strategy { return dynamic.NewGreedyJoin(nil) }},
	{"greedy+repair", func() dynamic.Strategy { return dynamic.NewGreedyJoinRepair(nil, 2) }},
	{"nearest", func() dynamic.Strategy { return dynamic.NewNearestJoin(nil) }},
	{"hysteresis", func() dynamic.Strategy {
		return dynamic.NewHysteresis(dynamic.NewPeriodicReoptimize(nil, 1e-6), 1, 0.05, dynamic.NewMigrationBudget(3, 6))
	}},
}

// TestReplayOneShardMatchesSimulate is the anchor for the scenario
// path: a plane replaying a scenario must reproduce
// dynamic.SimulateScenario bit for bit — same counters, same Timeline,
// same FinalD/MaxD/TimeAvgD down to the last bit — for every preset,
// under each of replayStrategies, uncapacitated and with 24 seats per
// server.
func TestReplayOneShardMatchesSimulate(t *testing.T) {
	kinds := dynamic.ScenarioKinds()
	if testing.Short() {
		kinds = []string{"flashcrowd", "storm"}
	}
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			sc, err := dynamic.BuildScenario(kind, 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, seats := range []int{0, 24} {
				for _, strat := range replayStrategies {
					t.Run(fmt.Sprintf("%s/cap=%d", strat.name, seats), func(t *testing.T) {
						checkReplay(t, sc, seats, strat.make)
					})
				}
			}
		})
	}
}

// TestReplayMultiShard repeats the anchor on two more draws of every
// preset, scenario seeds 4 and 16. The subtests keep the names of the
// shard counts they once ran at, and the count is now the seed; the
// plane has no shards, so a seed is what can still tell two cases
// apart.
func TestReplayMultiShard(t *testing.T) {
	kinds := dynamic.ScenarioKinds()
	if testing.Short() {
		kinds = []string{"storm", "drift"}
	}
	for _, kind := range kinds {
		for _, seed := range []int64{4, 16} {
			sc, err := dynamic.BuildScenario(kind, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, seats := range []int{0, 24} {
				name := fmt.Sprintf("%s/shards=%d", kind, seed)
				if seats > 0 {
					name += fmt.Sprintf("/cap=%d", seats)
				}
				t.Run(name, func(t *testing.T) {
					for _, strat := range replayStrategies {
						t.Run(strat.name, func(t *testing.T) { checkReplay(t, sc, seats, strat.make) })
					}
				})
			}
		}
	}
}

// checkReplay replays sc through a plane of the given strategy, with
// seats per server (0: uncapacitated), and compares it with
// SimulateScenario under a fresh strategy of the same kind.
func checkReplay(t *testing.T, sc *dynamic.Scenario, seats int, strategy func() dynamic.Strategy) {
	t.Helper()
	var caps core.Capacities
	if seats > 0 {
		caps = core.UniformCapacities(len(sc.Pop.Servers), seats)
	}
	want, err := dynamic.SimulateScenario(sc, caps, strategy())
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.NewFromPopulation(sc.Pop, shard.Options{Capacities: caps, Strategy: strategy()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Replay(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	compareReplay(t, got, want)
}

// TestReplayCapacitatedMatchesSimulate repeats the anchor under binding
// capacities, four seats above an even split, under each of
// replayStrategies. Then it runs both targets out of room: storm's kill
// of server 0 at seed 1 under NearestJoin and 17 seats per server must
// stop both at the same event, the plane's first detached client must
// be the one the simulator could not place, and the plane's last epoch
// must hold no client on a dead server and none of the detached
// clients.
func TestReplayCapacitatedMatchesSimulate(t *testing.T) {
	sc, err := dynamic.BuildScenario("flashcrowd", 7)
	if err != nil {
		t.Fatal(err)
	}
	caps := make(core.Capacities, len(sc.Pop.Servers))
	for k := range caps {
		caps[k] = sc.Pop.Instance.NumClients()/len(caps) + 4
	}
	for _, strat := range replayStrategies {
		want, err := dynamic.SimulateScenario(sc, caps, strat.make())
		if err != nil {
			t.Fatalf("%s: %v", strat.name, err)
		}
		p, err := shard.NewFromPopulation(sc.Pop, shard.Options{Capacities: caps, Strategy: strat.make()})
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Replay(context.Background(), sc)
		if err != nil {
			t.Fatalf("%s: %v", strat.name, err)
		}
		compareReplay(t, got, want)
	}

	if sc, err = dynamic.BuildScenario("storm", 1); err != nil {
		t.Fatal(err)
	}
	caps = core.UniformCapacities(len(sc.Pop.Servers), 17)
	_, simErr := dynamic.SimulateScenario(sc, caps, dynamic.NewNearestJoin(nil))
	m := regexp.MustCompile(`forced rejoin of client (\d+) (at t=[0-9.]+)`).FindStringSubmatch(fmt.Sprint(simErr))
	if !errors.Is(simErr, dynamic.ErrCapacityExhausted) || m == nil {
		t.Fatalf("the simulator stopped with %v, want a failed forced rejoin", simErr)
	}
	p, err := shard.NewFromPopulation(sc.Pop, shard.Options{Capacities: caps, Strategy: dynamic.NewNearestJoin(nil)})
	if err != nil {
		t.Fatal(err)
	}
	_, planeErr := p.Replay(context.Background(), sc)
	if !errors.Is(planeErr, dynamic.ErrCapacityExhausted) || !strings.Contains(planeErr.Error(), m[2]+":") {
		t.Fatalf("the simulator stopped with %v, the plane with %v", simErr, planeErr)
	}
	var evac *shard.EvacuationError
	if !errors.As(planeErr, &evac) || fmt.Sprint(evac.Detached[0]) != m[1] {
		t.Fatalf("the plane stopped with %v; the simulator could not place client %s", planeErr, m[1])
	}
	s := p.Current()
	for c, k := range s.Assignment {
		if k != core.Unassigned && !s.Alive[k] {
			t.Fatalf("epoch %d: client %d on dead server %d", s.Epoch, c, k)
		}
	}
	for _, c := range evac.Detached {
		if s.Assignment[c] != core.Unassigned {
			t.Fatalf("epoch %d: detached client %d sits on server %d", s.Epoch, c, s.Assignment[c])
		}
	}
}

func compareReplay(t *testing.T, got *shard.ReplayResult, want *dynamic.ScenarioResult) {
	t.Helper()
	if got.Joins != want.Joins || got.Leaves != want.Leaves {
		t.Fatalf("churn counters: got %d/%d, want %d/%d", got.Joins, got.Leaves, want.Joins, want.Leaves)
	}
	if got.KillsApplied != want.KillsApplied || got.Restarts != want.Restarts {
		t.Fatalf("failure counters: got %d/%d, want %d/%d",
			got.KillsApplied, got.Restarts, want.KillsApplied, want.Restarts)
	}
	if got.DriftSteps != want.DriftSteps {
		t.Fatalf("drift steps: got %d, want %d", got.DriftSteps, want.DriftSteps)
	}
	if got.ForcedMoves != want.ForcedMoves || got.RepairMoves != want.RepairMoves {
		t.Fatalf("move counters: got %d/%d, want %d/%d",
			got.ForcedMoves, got.RepairMoves, want.ForcedMoves, want.RepairMoves)
	}
	if got.SuppressedProposals != want.SuppressedProposals || got.SuppressedMoves != want.SuppressedMoves {
		t.Fatalf("suppressed counters: got %d/%d, want %d/%d",
			got.SuppressedProposals, got.SuppressedMoves, want.SuppressedProposals, want.SuppressedMoves)
	}
	bitsEq(t, "FinalD", got.FinalD, want.FinalD)
	bitsEq(t, "MaxD", got.MaxD, want.MaxD)
	bitsEq(t, "TimeAvgD", got.TimeAvgD, want.TimeAvgD)
	if len(got.Timeline) != len(want.Timeline) {
		t.Fatalf("timeline length: got %d, want %d", len(got.Timeline), len(want.Timeline))
	}
	for i := range got.Timeline {
		if got.Timeline[i].Time != want.Timeline[i].Time {
			t.Fatalf("timeline[%d] time: got %v, want %v", i, got.Timeline[i].Time, want.Timeline[i].Time)
		}
		bitsEq(t, fmt.Sprintf("timeline[%d] D", i), got.Timeline[i].D, want.Timeline[i].D)
	}
}

// TestApplyDriftCoordinatePlane drifts a shard.New plane: ApplyDrift
// takes moved [servers ∥ clients] coordinates, and the published D must
// equal, bit for bit, an evaluator over the matrix-built instance of
// the moved world at the published assignment — after the drift and
// after a join on the rebuilt evaluator. The even clients join first,
// in the round-robin order of the subtest's group count
// (roundRobin), so each subtest drifts a different assignment.
func TestApplyDriftCoordinatePlane(t *testing.T) {
	servers, clients := testCoords(t, 160, 6, 4)
	ns := len(servers)
	for _, groups := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", groups), func(t *testing.T) {
			p, err := shard.New(shard.Options{Servers: servers, Clients: clients})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for _, c := range roundRobin(len(clients), groups) {
				if c%2 != 0 {
					continue
				}
				if _, err := p.Join(ctx, c); err != nil {
					t.Fatal(err)
				}
			}
			moved := append(append([]latency.Coord(nil), servers...), clients...)
			rng := rand.New(rand.NewSource(5))
			for i := range moved {
				moved[i].X += 20 * rng.NormFloat64()
				moved[i].Y += 20 * rng.NormFloat64()
			}
			// A drift New would refuse publishes nothing.
			before := p.Current()
			nan, sunk := slices.Clone(moved), slices.Clone(moved)
			nan[ns+3].X = math.NaN()
			sunk[1].H = -1
			for _, bad := range []struct {
				what string
				cs   []latency.Coord
			}{{"one coordinate missing", moved[1:]}, {"a NaN client X", nan}, {"a negative server height", sunk}} {
				if err := p.ApplyDrift(ctx, bad.cs); err == nil {
					t.Fatalf("drift with %s succeeded", bad.what)
				}
				if p.Current() != before {
					t.Fatalf("refused drift with %s published epoch %d", bad.what, p.Current().Epoch)
				}
			}
			if err := p.ApplyDrift(ctx, moved); err != nil {
				t.Fatal(err)
			}
			snap := p.Current()
			if snap.D == before.D {
				t.Fatalf("drift left D at %v; the moved geometry is not exercised", snap.D)
			}
			bitsEq(t, "D after drift", snap.D, globalD(t, moved[:ns], moved[ns:], snap.Assignment))
			if _, err := p.Join(ctx, 1); err != nil {
				t.Fatal(err)
			}
			snap = p.Current()
			bitsEq(t, "D after a post-drift join", snap.D, globalD(t, moved[:ns], moved[ns:], snap.Assignment))
		})
	}
}

// TestReplayPopulationMismatch pins the defensive check against feeding
// a plane a scenario sized for a different population.
func TestReplayPopulationMismatch(t *testing.T) {
	sc, err := dynamic.BuildScenario("flashcrowd", 2)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := dynamic.NewPopulation(60, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.NewFromPopulation(pop, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Replay(context.Background(), sc); err == nil {
		t.Fatal("replay of a mis-sized scenario succeeded")
	}

	// Drift snapshots are population-indexed: a plane over the same
	// coordinates in New's [servers ∥ clients] node space must refuse
	// them rather than apply them to the wrong nodes.
	sc, err = dynamic.BuildScenario("drift", 2)
	if err != nil {
		t.Fatal(err)
	}
	var opts shard.Options
	for _, n := range sc.Pop.Servers {
		opts.Servers = append(opts.Servers, sc.Pop.Coords[n])
	}
	for _, n := range sc.Pop.Clients {
		opts.Clients = append(opts.Clients, sc.Pop.Coords[n])
	}
	if p, err = shard.New(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Replay(context.Background(), sc); err == nil {
		t.Fatal("replay of drift snapshots on a plane outside the population's node space succeeded")
	}
}
