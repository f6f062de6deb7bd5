package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"diacap/internal/core"
	"diacap/internal/dynamic"
	"diacap/internal/latency"
	"diacap/internal/obs"
)

// NewFromPopulation builds a plane over a scenario population: the
// population's coordinates become the plane's server and client
// coordinates, and the plane's node space is the population's own node
// order, so every instance entry is bit-identical to the corresponding
// pop.Instance entry and drift snapshots apply in the same node space.
// opts.Servers and opts.Clients are derived from pop and must be left
// nil.
func NewFromPopulation(pop *dynamic.Population, opts Options) (*Plane, error) {
	if pop == nil || pop.Instance == nil {
		return nil, errors.New("shard: nil population")
	}
	if opts.Servers != nil || opts.Clients != nil {
		return nil, errors.New("shard: NewFromPopulation derives Servers/Clients from the population")
	}
	opts.Servers = make([]latency.Coord, len(pop.Servers))
	for k, n := range pop.Servers {
		opts.Servers[k] = pop.Coords[n]
	}
	opts.Clients = make([]latency.Coord, len(pop.Clients))
	for i, n := range pop.Clients {
		opts.Clients[i] = pop.Coords[n]
	}
	return newPlane(opts, pop.Coords, append([]int(nil), pop.Servers...), append([]int(nil), pop.Clients...))
}

// ApplyDrift rebuilds the instance from drifted coordinates in the
// plane's node space (see New and NewFromPopulation), preserving the
// assignment, and gives it a fresh incremental evaluator. A drift with
// coordinates that New would refuse (a wrong count, a non-finite
// component, a negative height) is refused before anything changes.
func (p *Plane) ApplyDrift(ctx context.Context, cs []latency.Coord) error {
	if len(cs) != p.numNodes {
		return fmt.Errorf("shard: drift has %d coordinates, plane has %d nodes", len(cs), p.numNodes)
	}
	for n, c := range cs {
		if err := c.Valid(); err != nil {
			return fmt.Errorf("shard: drift: node %d: %w", n, err)
		}
	}
	ctx, sp := obs.Child(ctx, "plane.drift")
	defer sp.End()
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.begin(sp)()
	in, err := core.NewInstanceCoords(cs, p.serverNodes, p.clientNodes)
	if err != nil {
		return fmt.Errorf("shard: drift: %w", err)
	}
	ev, err := in.NewEvaluator(p.ev.Assignment())
	if err != nil {
		return fmt.Errorf("shard: drift: %w", err)
	}
	p.ev = ev
	// The fresh evaluator dropped the previous delta hook; reattach.
	p.installDeltaHook()
	p.met.event(opDrift)
	s := p.publishLocked(ctx)
	sp.SetAttr(obs.Uint("epoch", s.Epoch), obs.F64("d", s.D))
	return nil
}

// ReplayResult scores one scenario replay through the plane.
type ReplayResult struct {
	dynamic.ScenarioResult
	// FinalEpoch is the published epoch after the last event.
	FinalEpoch uint64
}

// Replay drives a finalized scenario through the plane: it runs
// dynamic.RunTape over the scenario's tape with the plane as the
// target. Churn goes through Join and Leave, kills evacuate through
// the plane, drift rebuilds the instance from the snapshot's
// coordinates (so the plane must be built by NewFromPopulation over the
// scenario's population), and after every event the strategy repairs
// once and the world's capacity invariant is re-checked on the
// published snapshot. The tape, its tie order, the horizon cut-off and
// the D bookkeeping are the simulator's own, and the plane decides
// with one evaluator and one strategy as the simulator does, so a
// replay reproduces dynamic.SimulateScenario bit for bit.
//
// When the plane has a tracer, every tape event is stamped with its own
// root span (replay.join, replay.leave, replay.kill, replay.restart,
// replay.drift) whose children are the plane operation and the repair
// pass it triggered. With a seeded tracer at sample rate 1 the
// resulting span forest is deterministic: same scenario, same seed,
// same tree.
func (p *Plane) Replay(ctx context.Context, sc *dynamic.Scenario) (*ReplayResult, error) {
	if sc == nil {
		return nil, errors.New("shard: nil scenario")
	}
	if sc.Pop == nil || sc.Pop.Instance == nil {
		return nil, errors.New("shard: scenario has no population")
	}
	if sc.Pop.Instance.NumClients() != p.NumClients() || len(sc.Pop.Servers) != p.NumServers() {
		return nil, fmt.Errorf("shard: scenario population (%d clients, %d servers) does not match plane (%d, %d)",
			sc.Pop.Instance.NumClients(), len(sc.Pop.Servers), p.NumClients(), p.NumServers())
	}
	if len(sc.Snapshots) > 0 && !(slices.Equal(p.serverNodes, sc.Pop.Servers) && slices.Equal(p.clientNodes, sc.Pop.Clients)) {
		return nil, errors.New("shard: drift snapshots are in the population's node space; build the plane with NewFromPopulation")
	}
	sr, err := dynamic.RunTape(ctx, dynamic.ScenarioTape(sc), sc.Horizon,
		&replayTarget{p: p, snaps: sc.Snapshots})
	if err != nil {
		return nil, err
	}
	res := &ReplayResult{ScenarioResult: sr}
	res.Strategy = p.strat.Name()
	if h, ok := p.strat.(*dynamic.Hysteresis); ok {
		res.SuppressedProposals, res.SuppressedMoves = h.Suppressed()
	}
	res.FinalEpoch = p.Epoch()
	return res, nil
}

// replayTarget is the plane's world for dynamic.RunTape.
type replayTarget struct {
	p     *Plane
	snaps []dynamic.DriftSnapshot
}

// replaySpans names the root span of each tape event kind.
var replaySpans = [...]string{
	dynamic.TapeLeave:   "replay.leave",
	dynamic.TapeRestart: "replay.restart",
	dynamic.TapeKill:    "replay.kill",
	dynamic.TapeJoin:    "replay.join",
	dynamic.TapeDrift:   "replay.drift",
}

// D implements dynamic.Target.
func (t *replayTarget) D() float64 { return t.p.Current().D }

// Apply implements dynamic.Target. The event's root span encloses the
// plane operation, the repair pass and the invariant check.
func (t *replayTarget) Apply(ctx context.Context, e dynamic.TapeEvent) (dynamic.Step, error) {
	p := t.p
	ctx, sp := p.tracer.Root(ctx, replaySpans[e.Kind])
	defer sp.End()
	sp.SetAttr(obs.F64("time", e.Time))
	var st dynamic.Step
	switch e.Kind {
	case dynamic.TapeJoin, dynamic.TapeLeave:
		op, verb := p.Join, "join"
		if e.Kind == dynamic.TapeLeave {
			op, verb = p.Leave, "leave"
		}
		if _, err := op(ctx, e.ID); err != nil {
			return st, fmt.Errorf("shard: %s of client %d at t=%.1f: %w", verb, e.ID, e.Time, err)
		}
		sp.SetAttr(obs.Int("client", e.ID))
	case dynamic.TapeKill:
		wasAlive := p.ServerAlive(e.ID)
		_, evacuated, err := p.KillServer(ctx, e.ID)
		if err != nil {
			return st, fmt.Errorf("shard: kill of server %d at t=%.1f: %w", e.ID, e.Time, err)
		}
		st.Noop, st.Forced = !wasAlive, evacuated
		sp.SetAttr(obs.Int("server", e.ID), obs.Int("evacuated", evacuated))
	case dynamic.TapeRestart:
		wasAlive := p.ServerAlive(e.ID)
		if _, err := p.RestartServer(ctx, e.ID); err != nil {
			return st, err
		}
		st.Noop = wasAlive
		sp.SetAttr(obs.Int("server", e.ID))
	case dynamic.TapeDrift:
		snap := t.snaps[e.ID]
		if err := p.ApplyDrift(ctx, snap.Coords); err != nil {
			return st, fmt.Errorf("shard: drift at t=%.1f: %w", snap.Time, err)
		}
	}
	st.Repairs = p.Repair(ctx, e.Time)
	if err := p.checkInvariant(e.Time); err != nil {
		return st, err
	}
	return st, nil
}

// ServerAlive reports whether server k is up in the published state.
func (p *Plane) ServerAlive(k int) bool {
	s := p.snap.Load()
	return k >= 0 && k < len(s.Alive) && s.Alive[k]
}

// checkInvariant verifies the world's capacity invariant on the
// published snapshot (dynamic.CheckServers over its loads).
func (p *Plane) checkInvariant(t float64) error {
	s := p.Current()
	if err := dynamic.CheckServers(func(k int) int { return s.Loads[k] }, s.Alive, p.opts.Capacities); err != nil {
		return fmt.Errorf("shard: at t=%.1f: %w", t, err)
	}
	return nil
}
