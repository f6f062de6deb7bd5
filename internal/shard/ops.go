package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"time"

	"diacap/internal/core"
	"diacap/internal/dynamic"
	"diacap/internal/obs"
)

// OpResult reports the outcome of one control-plane mutation.
type OpResult struct {
	// Epoch is the snapshot epoch this mutation published.
	Epoch uint64
	// Server is the client's server after the mutation (join/migrate),
	// or its former server (leave); core.Unassigned otherwise.
	Server int
	// D is the published global D.
	D float64
}

func (p *Plane) opResult(ctx context.Context, server int) OpResult {
	s := p.publishLocked(ctx)
	return OpResult{Epoch: s.Epoch, Server: server, D: s.D}
}

// begin opens the per-mutation span and parks it in p.curSpan so the
// evaluator delta hook and the hysteresis hook can attach their events.
// The returned func undoes the parking; callers hold p.mu. Every span
// method is nil-safe, so untraced requests pay only the nil checks.
func (p *Plane) begin(sp *obs.Span) func() {
	p.curSpan = sp
	return func() { p.curSpan = nil }
}

// Join activates client c, placing it through the strategy. Fails with
// ErrUnknownClient, core.ErrAlreadyAssigned, or ErrNoCapacity. The
// context carries the request's trace span, if any; the plane's work is
// recorded as a plane.join child span.
func (p *Plane) Join(ctx context.Context, c int) (OpResult, error) {
	if err := p.checkClient(c); err != nil {
		return OpResult{}, err
	}
	ctx, sp := p.opSpan(ctx, "plane.join", c)
	defer sp.End()
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.begin(sp)()
	if p.ev.ServerOf(c) != core.Unassigned {
		p.met.rejected(rejConflict)
		return OpResult{}, fmt.Errorf("%w: client %d", core.ErrAlreadyAssigned, c)
	}
	s, err := p.place(c)
	if err != nil {
		p.met.rejected(rejNoCapacity)
		return OpResult{}, err
	}
	p.met.event(opJoin)
	return p.clientResult(ctx, sp, s), nil
}

// opSpan opens a client operation's child span with its client
// attribute. The attribute is rendered only for a traced request:
// every span method is nil-safe, but arguments are built eagerly and
// every write passes through here.
func (p *Plane) opSpan(ctx context.Context, name string, c int) (context.Context, *obs.Span) {
	ctx, sp := obs.Child(ctx, name)
	if sp != nil {
		sp.SetAttr(obs.Int("client", c))
	}
	return ctx, sp
}

// clientResult publishes a client operation's epoch and, for a traced
// request, records the client's server, the epoch and D on its span.
func (p *Plane) clientResult(ctx context.Context, sp *obs.Span, server int) OpResult {
	r := p.opResult(ctx, server)
	if sp != nil {
		sp.SetAttr(obs.Int("server", server), obs.Uint("epoch", r.Epoch), obs.F64("d", r.D))
	}
	return r
}

// place runs the strategy's join path for the unassigned client c
// against p.eff and applies the placement. A negative, dead or
// saturated answer from the strategy is an error, never a placement.
// Callers hold p.mu.
func (p *Plane) place(c int) (int, error) {
	s := p.strat.PlaceJoin(p.ev, p.eff, c)
	if s < 0 {
		return -1, fmt.Errorf("%w: client %d: %w", ErrNoCapacity, c, dynamic.ErrCapacityExhausted)
	}
	if s >= len(p.alive) || !p.alive[s] {
		return -1, fmt.Errorf("shard: strategy %s returned unusable server %d", p.strat.Name(), s)
	}
	if p.eff != nil && p.ev.Load(s) >= p.eff[s] {
		return -1, fmt.Errorf("shard: strategy %s placed a client on saturated server %d", p.strat.Name(), s)
	}
	if _, err := p.ev.ApplyJoin(c, s); err != nil {
		return -1, err
	}
	return s, nil
}

// Leave deactivates client c. Fails with ErrUnknownClient or
// core.ErrNotAssigned.
func (p *Plane) Leave(ctx context.Context, c int) (OpResult, error) {
	if err := p.checkClient(c); err != nil {
		return OpResult{}, err
	}
	ctx, sp := p.opSpan(ctx, "plane.leave", c)
	defer sp.End()
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.begin(sp)()
	old := p.ev.ServerOf(c)
	if _, err := p.ev.ApplyLeave(c); err != nil {
		p.met.rejected(rejConflict)
		return OpResult{}, err
	}
	p.met.event(opLeave)
	return p.clientResult(ctx, sp, old), nil
}

// Migrate moves active client c to server target; target < 0 asks the
// strategy to re-place the client (the client keeps its old server if
// no better placement has room). An explicit target must be below its
// capacity. Fails with ErrUnknownClient, core.ErrNotAssigned,
// ErrUnknownServer, ErrServerDown, or ErrNoCapacity.
func (p *Plane) Migrate(ctx context.Context, c, target int) (OpResult, error) {
	if err := p.checkClient(c); err != nil {
		return OpResult{}, err
	}
	ctx, sp := p.opSpan(ctx, "plane.migrate", c)
	defer sp.End()
	if sp != nil {
		sp.SetAttr(obs.Int("target", target))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.begin(sp)()
	old := p.ev.ServerOf(c)
	if old == core.Unassigned {
		p.met.rejected(rejConflict)
		return OpResult{}, fmt.Errorf("%w: migrate of client %d", core.ErrNotAssigned, c)
	}
	if target >= 0 {
		if err := p.checkServer(target); err != nil {
			return OpResult{}, err
		}
		if !p.alive[target] {
			p.met.rejected(rejServerDown)
			return OpResult{}, fmt.Errorf("%w: server %d", ErrServerDown, target)
		}
		if target != old && p.eff != nil && p.ev.Load(target) >= p.eff[target] {
			p.met.rejected(rejNoCapacity)
			return OpResult{}, fmt.Errorf("%w: server %d is saturated", ErrNoCapacity, target)
		}
		if _, err := p.ev.ApplyMove(c, target); err != nil {
			return OpResult{}, err
		}
		p.met.event(opMigrate)
		return p.clientResult(ctx, sp, target), nil
	}
	// Strategy re-placement: lift the client out, ask the strategy, and
	// restore the old seat if nothing has room.
	if _, err := p.ev.ApplyLeave(c); err != nil {
		return OpResult{}, err
	}
	s, err := p.place(c)
	if err != nil {
		if _, rerr := p.ev.ApplyJoin(c, old); rerr != nil {
			return OpResult{}, errors.Join(err, rerr)
		}
		return OpResult{}, err
	}
	p.met.event(opMigrate)
	return p.clientResult(ctx, sp, s), nil
}

// KillServer marks server k dead and evacuates its clients in
// ascending client id through the strategy, as dynamic.Evacuate does.
// Every evacuee either gets a live seat or is detached (made inactive;
// a later Join re-seats it) and named in the returned
// *EvacuationError; either way the kill publishes one epoch. Killing a
// dead server is idempotent. A kill is a failover: it is journaled in
// the flight recorder and triggers a recorder dump.
func (p *Plane) KillServer(ctx context.Context, k int) (OpResult, int, error) {
	if err := p.checkServer(k); err != nil {
		return OpResult{}, 0, err
	}
	ctx, sp := obs.Child(ctx, "plane.kill")
	defer sp.End()
	if sp != nil {
		sp.SetAttr(obs.Int("server", k))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.begin(sp)()
	if !p.alive[k] {
		// Idempotent double kill: no state change, no new epoch.
		s := p.snap.Load()
		return OpResult{Epoch: s.Epoch, Server: k, D: s.D}, 0, nil
	}
	p.setAlive(k, false)
	evacuated := 0
	var detached []int // ascending, as the evacuation visits them
	var fault error    // the first refusal that is not a lack of room
	for c := range p.NumClients() {
		if p.ev.ServerOf(c) != k {
			continue
		}
		if _, err := p.ev.ApplyLeave(c); err != nil {
			fault = cmp.Or(fault, err)
			continue
		}
		if _, err := p.place(c); err != nil {
			if !errors.Is(err, ErrNoCapacity) {
				fault = cmp.Or(fault, err)
			}
			detached = append(detached, c)
			continue
		}
		evacuated++
	}
	p.met.event(opKill)
	r := p.opResult(ctx, k)
	if sp != nil {
		sp.SetAttr(obs.Int("evacuated", evacuated), obs.Uint("epoch", r.Epoch))
	}
	p.jFailover.Record("kill", sp.TraceID(),
		obs.Int("server", k),
		obs.Int("evacuated", evacuated),
		obs.Int("dead", p.dead),
		obs.Uint("epoch", r.Epoch),
		obs.Int("detached", len(detached)))
	p.flight.Dump("server-kill")
	var err error
	if detached != nil {
		err = &EvacuationError{Server: k, Detached: detached}
	}
	if fault != nil {
		err = errors.Join(err, fault)
	}
	return r, evacuated, err
}

// RestartServer brings server k back. Restarting a live server is
// idempotent.
func (p *Plane) RestartServer(ctx context.Context, k int) (OpResult, error) {
	if err := p.checkServer(k); err != nil {
		return OpResult{}, err
	}
	ctx, sp := obs.Child(ctx, "plane.restart")
	defer sp.End()
	sp.SetAttr(obs.Int("server", k))
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.begin(sp)()
	if !p.alive[k] {
		p.setAlive(k, true)
		p.met.event(opRestart)
		p.jFailover.Record("restart", sp.TraceID(),
			obs.Int("server", k), obs.Int("dead", p.dead))
	}
	r := p.opResult(ctx, k)
	sp.SetAttr(obs.Uint("epoch", r.Epoch))
	return r, nil
}

// checkClient refuses, and counts, a client id outside [0, |C|).
func (p *Plane) checkClient(c int) error {
	if c < 0 || c >= p.NumClients() {
		p.met.rejected(rejUnknownClient)
		return fmt.Errorf("%w: id %d (universe size %d)", ErrUnknownClient, c, p.NumClients())
	}
	return nil
}

// checkServer refuses, and counts, a server id outside [0, |S|).
func (p *Plane) checkServer(k int) error {
	if k < 0 || k >= len(p.alive) {
		p.met.rejected(rejUnknownServer)
		return fmt.Errorf("%w: server %d out of range [0,%d)", ErrUnknownServer, k, len(p.alive))
	}
	return nil
}

// setAlive marks server k up or down and recomputes what the strategy
// decides against, dynamic.EffectiveCaps under the new liveness.
// Callers hold p.mu.
func (p *Plane) setAlive(k int, up bool) {
	p.alive[k] = up
	if up {
		p.dead--
	} else {
		p.dead++
	}
	p.eff = dynamic.EffectiveCaps(p.opts.Capacities, p.alive, p.NumClients())
}

// Repair runs the strategy's repair pass at virtual time now and
// returns the number of migrations it performed; a repair that moved
// anyone publishes one epoch. The strategy moves clients through the
// evaluator directly, and the publish reads them from it.
func (p *Plane) Repair(ctx context.Context, now float64) int {
	ctx, sp := obs.Child(ctx, "plane.repair")
	defer sp.End()
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.begin(sp)()
	//lint:ignore dialint/wallclock-determinism lastRepair feeds only the health endpoint's staleness display, never a replayed decision
	p.lastRepair.Store(time.Now().UnixNano())
	moves := p.strat.Repair(p.ev, p.eff, now)
	sp.SetAttr(obs.Int("moves", moves))
	if moves != 0 {
		p.publishLocked(ctx)
	}
	return moves
}

// LastRepair returns the wall time of the last Repair, or the zero time
// before the first. It takes no lock, so a health probe never waits
// behind a write.
func (p *Plane) LastRepair() time.Time {
	n := p.lastRepair.Load()
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// EvaluatorStats returns the evaluator's work counters — tests use them
// to prove the plane never fell back to O(world) repair.
func (p *Plane) EvaluatorStats() core.EvaluatorStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ev.Stats()
}
