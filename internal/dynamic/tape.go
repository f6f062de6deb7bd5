package dynamic

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"diacap/internal/core"
)

// The event-tape interpreter. Every online replay in the repo — a
// churn trace through Simulate, a scenario through SimulateScenario,
// a scenario through the sharded plane — is one tape walked by
// RunTape over a Target. The tape fixes what happens when; the target
// is the world it happens to.

// TapeKind is the kind of one tape event. The constant order is the
// order of events at equal times.
type TapeKind int

// Tape event kinds, in tie order.
const (
	TapeLeave   TapeKind = iota // leaves first at ties: frees capacity
	TapeRestart                 // then restarts: adds capacity
	TapeKill                    // then kills: evacuations see restarts
	TapeJoin                    // then joins
	TapeDrift                   // drift last: D recorded on the new geometry
)

// TapeEvent is one step of a tape. ID is the client of a join or
// leave, the server of a kill or restart, and the Scenario.Snapshots
// index of a drift step.
type TapeEvent struct {
	Time float64
	Kind TapeKind
	ID   int
}

// Step is what a target reports for one applied tape event.
type Step struct {
	// Noop marks a kill of a dead server or a restart of a live one:
	// the event still repairs and records D but is not counted.
	Noop bool
	// Forced counts the clients a kill evacuated.
	Forced int
	// Repairs counts the strategy's repair moves after the event.
	Repairs int
}

// Target is a world RunTape drives. Apply performs one event together
// with the strategy repair it triggers and the capacity check after
// it; D reports the interactivity of the current state.
type Target interface {
	Apply(ctx context.Context, e TapeEvent) (Step, error)
	D() float64
}

// churnTape maps one churn event onto the tape.
func churnTape(e Event) TapeEvent {
	k := TapeJoin
	if e.Kind == Leave {
		k = TapeLeave
	}
	return TapeEvent{Time: e.Time, Kind: k, ID: e.Client}
}

// ScenarioTape merges a scenario's churn events, its kills, the
// restarts that fall before the horizon and its drift snapshots into
// one tape, stable-sorted by (time, kind).
func ScenarioTape(sc *Scenario) []TapeEvent {
	tape := make([]TapeEvent, 0, len(sc.Events)+2*len(sc.Kills)+len(sc.Snapshots))
	for _, e := range sc.Events {
		tape = append(tape, churnTape(e))
	}
	for _, k := range sc.Kills {
		tape = append(tape, TapeEvent{Time: k.Time, Kind: TapeKill, ID: k.Server})
		if k.RestartAt > k.Time && k.RestartAt < sc.Horizon {
			tape = append(tape, TapeEvent{Time: k.RestartAt, Kind: TapeRestart, ID: k.Server})
		}
	}
	for i, s := range sc.Snapshots {
		tape = append(tape, TapeEvent{Time: s.Time, Kind: TapeDrift, ID: i})
	}
	sort.SliceStable(tape, func(i, j int) bool { return tapeLess(tape[i], tape[j]) })
	return tape
}

// tapeLess is the tape order: by time, then by kind.
func tapeLess(a, b TapeEvent) bool {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c < 0
	}
	return a.Kind < b.Kind
}

// RunTape applies tape to t in order, passing ctx to every Apply, and
// stops at the first event after horizon (an event at the horizon
// still runs). It counts the events by kind and samples D after each
// one into the Timeline, MaxD and the time integral behind TimeAvgD,
// which it closes at the horizon. The caller fills in the strategy name
// and the hysteresis counters.
func RunTape(ctx context.Context, tape []TapeEvent, horizon float64, t Target) (ScenarioResult, error) {
	var res ScenarioResult
	prevT, prevD := 0.0, 0.0
	var integral float64
	for _, e := range tape {
		if e.Time > horizon {
			break
		}
		st, err := t.Apply(ctx, e)
		if err != nil {
			return ScenarioResult{}, err
		}
		switch e.Kind {
		case TapeJoin:
			res.Joins++
		case TapeLeave:
			res.Leaves++
		case TapeKill:
			if !st.Noop {
				res.KillsApplied++
			}
		case TapeRestart:
			if !st.Noop {
				res.Restarts++
			}
		case TapeDrift:
			res.DriftSteps++
		}
		res.ForcedMoves += st.Forced
		res.RepairMoves += st.Repairs
		d := t.D()
		integral += prevD * (e.Time - prevT)
		prevT, prevD = e.Time, d
		if d > res.MaxD {
			res.MaxD = d
		}
		res.Timeline = append(res.Timeline, TimelinePoint{Time: e.Time, D: d})
	}
	integral += prevD * (horizon - prevT)
	res.TimeAvgD = integral / horizon
	res.FinalD = t.D()
	return res, nil
}

// EffectiveCaps is the capacity vector a strategy sees: caps with
// every dead server clamped to zero. While all servers are up it is
// caps itself, so nil still means unlimited; once one is down, nil caps
// become numClients — room for everyone — on each live server.
func EffectiveCaps(caps core.Capacities, alive []bool, numClients int) core.Capacities {
	if !slices.Contains(alive, false) {
		return caps
	}
	eff := make(core.Capacities, len(alive))
	for k, up := range alive {
		switch {
		case !up:
			eff[k] = 0
		case caps != nil:
			eff[k] = caps[k]
		default:
			eff[k] = numClients
		}
	}
	return eff
}

// CheckServers verifies the per-server invariant of a world whose
// server k holds loadOf(k) clients: no client sits on a dead server and
// no load exceeds its capacity (nil = unlimited). The simulator checks
// its evaluator, the plane its published loads.
func CheckServers(loadOf func(k int) int, alive []bool, eff core.Capacities) error {
	for k, up := range alive {
		load := loadOf(k)
		if !up && load > 0 {
			return fmt.Errorf("%d clients on dead server %d", load, k)
		}
		if eff != nil && load > eff[k] {
			return fmt.Errorf("capacity violation on server %d: load %d > cap %d", k, load, eff[k])
		}
	}
	return nil
}
