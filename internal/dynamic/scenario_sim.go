package dynamic

import (
	"context"
	"errors"
	"fmt"

	"diacap/internal/core"
)

// ScenarioResult scores one strategy over one scenario.
type ScenarioResult struct {
	Result
	// ForcedMoves counts failover reassignments: clients evacuated from
	// killed servers. They are disruption the strategy did not choose,
	// so they are tracked apart from RepairMoves.
	ForcedMoves int
	// KillsApplied and Restarts count processed failure events.
	KillsApplied, Restarts int
	// DriftSteps counts instance re-materializations from drifted
	// coordinates.
	DriftSteps int
	// SuppressedProposals and SuppressedMoves mirror Hysteresis
	// counters when the strategy is hysteresis-wrapped (zero otherwise).
	SuppressedProposals, SuppressedMoves int
}

// SimulateScenario replays a finalized scenario against a strategy.
//
// Server kills become capacity: a dead server's effective capacity is
// zero, its clients are evacuated through the strategy's own PlaceJoin
// (counted as ForcedMoves), and joins and repairs run against the
// degraded capacities until the restart. Drift snapshots swap the
// evaluator onto the re-materialized instance while preserving the
// assignment — the strategies read geometry through the evaluator, so
// the same strategy values keep running across snapshots.
//
// After every event the capacity invariant is re-checked; a violation
// is a bug in the strategy (or this simulator) and fails the run with a
// typed error rather than corrupting results. Bursts that exceed total
// remaining capacity fail with ErrCapacityExhausted.
func SimulateScenario(sc *Scenario, caps core.Capacities, strat Strategy) (*ScenarioResult, error) {
	if sc == nil || strat == nil {
		return nil, errors.New("dynamic: nil scenario or strategy")
	}
	if !sc.finalized {
		return nil, fmt.Errorf("dynamic: scenario %s not finalized", sc.Name)
	}
	in := sc.Pop.Instance
	if caps != nil {
		if err := in.ValidateCapacities(caps); err != nil {
			return nil, err
		}
	}
	ev, err := in.NewEvaluator(core.NewAssignment(in.NumClients()))
	if err != nil {
		return nil, err
	}
	res, err := RunTape(context.TODO(), ScenarioTape(sc), sc.Horizon, newEvalTarget(ev, caps, strat, sc.Snapshots))
	if err != nil {
		return nil, err
	}
	res.Strategy = strat.Name()
	if h, ok := strat.(*Hysteresis); ok {
		res.SuppressedProposals, res.SuppressedMoves = h.Suppressed()
	}
	return &res, nil
}

// evalTarget is the simulator's world for RunTape: one evaluator over
// the whole client pool, driven by one strategy.
type evalTarget struct {
	ev    *core.Evaluator
	strat Strategy
	// caps are the caller's capacities (nil = unlimited); eff is what
	// the strategy sees, EffectiveCaps of caps under alive.
	caps, eff core.Capacities
	alive     []bool
	snaps     []DriftSnapshot
}

// newEvalTarget starts the world from ev (every client unassigned)
// with every server up.
func newEvalTarget(ev *core.Evaluator, caps core.Capacities, strat Strategy, snaps []DriftSnapshot) *evalTarget {
	alive := make([]bool, ev.Instance().NumServers())
	for k := range alive {
		alive[k] = true
	}
	return &evalTarget{ev: ev, strat: strat, caps: caps, eff: caps, alive: alive, snaps: snaps}
}

// D implements Target.
func (t *evalTarget) D() float64 { return t.ev.D() }

// Apply implements Target.
func (t *evalTarget) Apply(_ context.Context, e TapeEvent) (Step, error) {
	var st Step
	switch e.Kind {
	case TapeJoin, TapeLeave:
		c := e.ID
		if c < 0 || c >= t.ev.Instance().NumClients() {
			return st, fmt.Errorf("dynamic: event client %d out of range", c)
		}
		if e.Kind == TapeLeave {
			if t.ev.ServerOf(c) == core.Unassigned {
				return st, fmt.Errorf("dynamic: client %d left while inactive", c)
			}
			t.ev.Move(c, core.Unassigned)
			break
		}
		if t.ev.ServerOf(c) != core.Unassigned {
			return st, fmt.Errorf("dynamic: client %d joined twice", c)
		}
		if err := place(t.ev, t.strat, t.eff, c, e.Time, false); err != nil {
			return st, err
		}
	case TapeKill:
		k := e.ID
		if !t.alive[k] {
			st.Noop = true // double kill in overlapping storms: idempotent
			break
		}
		t.setAlive(k, false)
		var err error
		if st.Forced, err = Evacuate(t.ev, t.strat, t.eff, k, e.Time); err != nil {
			return st, err
		}
	case TapeRestart:
		if t.alive[e.ID] {
			st.Noop = true
			break
		}
		t.setAlive(e.ID, true)
	case TapeDrift:
		snap := t.snaps[e.ID]
		fresh, err := snap.Instance.NewEvaluator(t.ev.Assignment())
		if err != nil {
			return st, fmt.Errorf("dynamic: drift snapshot at t=%.1f: %w", snap.Time, err)
		}
		t.ev = fresh
	}
	st.Repairs = t.strat.Repair(t.ev, t.eff, e.Time)
	if err := CheckServers(t.ev.Load, t.alive, t.eff); err != nil {
		return st, fmt.Errorf("dynamic: %s at t=%.1f: %w", t.strat.Name(), e.Time, err)
	}
	return st, nil
}

func (t *evalTarget) setAlive(k int, up bool) {
	t.alive[k] = up
	t.eff = EffectiveCaps(t.caps, t.alive, t.ev.Instance().NumClients())
}

// Evacuate is the simulator's failover rule, for callers with no
// plane: it moves every client of server k, in ascending client order,
// to the server strat.PlaceJoin picks under eff (EffectiveCaps with k
// dead), and returns how many moved. at is the kill time, for errors;
// a refused client is left unassigned.
func Evacuate(ev *core.Evaluator, strat Strategy, eff core.Capacities, k int, at float64) (int, error) {
	forced := 0
	for c := 0; c < ev.Instance().NumClients(); c++ {
		if ev.ServerOf(c) != k {
			continue
		}
		ev.Move(c, core.Unassigned)
		if err := place(ev, strat, eff, c, at, true); err != nil {
			return forced, err
		}
		forced++
	}
	return forced, nil
}

// place runs the strategy's join path with full validation; forced
// marks kill evacuations.
func place(ev *core.Evaluator, strat Strategy, eff core.Capacities, c int, at float64, forced bool) error {
	word := "join"
	if forced {
		word = "forced rejoin"
	}
	s := strat.PlaceJoin(ev, eff, c)
	if s < 0 {
		if !anyCapacityLeft(ev, eff) {
			return fmt.Errorf("dynamic: %s: %s of client %d at t=%.1f: %w",
				strat.Name(), word, c, at, ErrCapacityExhausted)
		}
		return fmt.Errorf("dynamic: %s returned server %d for %s", strat.Name(), s, word)
	}
	if s >= ev.Instance().NumServers() {
		return fmt.Errorf("dynamic: %s returned server %d for %s", strat.Name(), s, word)
	}
	if eff != nil && ev.Load(s) >= eff[s] {
		return fmt.Errorf("dynamic: %s placed a %s on saturated server %d", strat.Name(), word, s)
	}
	ev.Move(c, s)
	return nil
}
