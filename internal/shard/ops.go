package shard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"diacap/internal/assign"
	"diacap/internal/core"
	"diacap/internal/dynamic"
	"diacap/internal/obs"
)

// OpResult reports the outcome of one control-plane mutation.
type OpResult struct {
	// Epoch is the snapshot epoch this mutation published.
	Epoch uint64
	// Shard is the shard that absorbed the mutation (-1 for
	// whole-plane operations).
	Shard int
	// Server is the client's server after the mutation (join/migrate),
	// or its former server (leave); core.Unassigned otherwise.
	Server int
	// D and CertifiedD are the published global values.
	D, CertifiedD float64
}

func (p *Plane) opResult(ctx context.Context, shard, server int) OpResult {
	s := p.publishLocked(ctx)
	return OpResult{Epoch: s.Epoch, Shard: shard, Server: server, D: s.D, CertifiedD: s.CertifiedD}
}

// begin opens the per-mutation span and parks it in p.curSpan so the
// evaluator delta hook and the hysteresis hook can attach their events.
// The returned func undoes the parking; callers hold p.mu. Every span
// method is nil-safe, so untraced requests pay only the nil checks.
func (p *Plane) begin(sp *obs.Span) func() {
	p.curSpan = sp
	return func() { p.curSpan = nil }
}

// Join activates client c, placing it through the owning shard's
// strategy. Fails with ErrUnknownClient, core.ErrAlreadyAssigned, or
// ErrNoCapacity. The context carries the request's trace span, if any;
// the plane's work is recorded as a plane.join child span.
func (p *Plane) Join(ctx context.Context, c int) (OpResult, error) {
	sid, err := p.ShardOf(c)
	if err != nil {
		p.met.rejected(rejUnknownClient)
		return OpResult{}, err
	}
	ctx, sp := p.opSpan(ctx, "plane.join", c, sid)
	defer sp.End()
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.begin(sp)()
	sh := p.shards[sid]
	local := p.clientLocal[c]
	if sh.ev.ServerOf(local) != core.Unassigned {
		p.met.rejected(rejConflict)
		return OpResult{}, fmt.Errorf("%w: client %d", core.ErrAlreadyAssigned, c)
	}
	p.refreshCaps(sh)
	s, err := p.place(sh, local, c)
	if err != nil {
		p.met.rejected(rejNoCapacity)
		return OpResult{}, err
	}
	p.met.event(opJoin)
	return p.clientResult(ctx, sp, sid, s), nil
}

// opSpan opens a client operation's child span with its client and
// shard attributes. The attributes are rendered only for a traced
// request: every span method is nil-safe, but arguments are built
// eagerly and every write passes through here.
func (p *Plane) opSpan(ctx context.Context, name string, c, shard int) (context.Context, *obs.Span) {
	ctx, sp := obs.Child(ctx, name)
	if sp != nil {
		sp.SetAttr(obs.Int("client", c), obs.Int("shard", shard))
	}
	return ctx, sp
}

// clientResult publishes a client operation's epoch and, for a traced
// request, records the client's server, the epoch and D on its span.
func (p *Plane) clientResult(ctx context.Context, sp *obs.Span, shard, server int) OpResult {
	r := p.opResult(ctx, shard, server)
	if sp != nil {
		sp.SetAttr(obs.Int("server", server), obs.Uint("epoch", r.Epoch), obs.F64("d", r.D))
	}
	return r
}

// place runs the shard strategy's join path for local client against
// sh.effCaps and applies the placement. A negative, dead or saturated
// answer from the strategy is an error, never a placement. Callers
// hold p.mu and have refreshed sh.effCaps (refreshCaps).
func (p *Plane) place(sh *shardState, local, global int) (int, error) {
	s := sh.strat.PlaceJoin(sh.ev, sh.effCaps, local)
	if s < 0 {
		return -1, fmt.Errorf("%w: client %d (shard %d): %w",
			ErrNoCapacity, global, sh.id, dynamic.ErrCapacityExhausted)
	}
	if s >= len(p.alive) || !p.alive[s] {
		return -1, fmt.Errorf("shard: strategy %s returned unusable server %d", sh.strat.Name(), s)
	}
	if sh.effCaps != nil && sh.ev.Load(s) >= sh.effCaps[s] {
		return -1, fmt.Errorf("shard: strategy %s placed a client on saturated server %d", sh.strat.Name(), s)
	}
	if _, err := sh.ev.ApplyJoin(local, s); err != nil {
		return -1, err
	}
	p.noteAssign(sh, global, s, +1)
	return s, nil
}

// Leave deactivates client c. Fails with ErrUnknownClient or
// core.ErrNotAssigned.
func (p *Plane) Leave(ctx context.Context, c int) (OpResult, error) {
	sid, err := p.ShardOf(c)
	if err != nil {
		p.met.rejected(rejUnknownClient)
		return OpResult{}, err
	}
	ctx, sp := p.opSpan(ctx, "plane.leave", c, sid)
	defer sp.End()
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.begin(sp)()
	sh := p.shards[sid]
	local := p.clientLocal[c]
	old := sh.ev.ServerOf(local)
	if _, err := sh.ev.ApplyLeave(local); err != nil {
		p.met.rejected(rejConflict)
		return OpResult{}, err
	}
	p.noteAssign(sh, c, old, -1)
	p.met.event(opLeave)
	return p.clientResult(ctx, sp, sid, old), nil
}

// Migrate moves active client c to server target; target < 0 asks the
// owning shard's strategy to re-place the client (the client keeps its
// old server if no better placement has room). An explicit target must
// be below its capacity in the world's load. Fails with
// ErrUnknownClient, core.ErrNotAssigned, ErrServerDown, or
// ErrNoCapacity.
func (p *Plane) Migrate(ctx context.Context, c, target int) (OpResult, error) {
	sid, err := p.ShardOf(c)
	if err != nil {
		p.met.rejected(rejUnknownClient)
		return OpResult{}, err
	}
	ctx, sp := p.opSpan(ctx, "plane.migrate", c, sid)
	defer sp.End()
	if sp != nil {
		sp.SetAttr(obs.Int("target", target))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.begin(sp)()
	sh := p.shards[sid]
	local := p.clientLocal[c]
	old := sh.ev.ServerOf(local)
	if old == core.Unassigned {
		p.met.rejected(rejConflict)
		return OpResult{}, fmt.Errorf("%w: migrate of client %d", core.ErrNotAssigned, c)
	}
	p.refreshCaps(sh)
	if target >= 0 {
		if target >= len(p.alive) {
			return OpResult{}, fmt.Errorf("shard: server %d out of range [0,%d)", target, len(p.alive))
		}
		if !p.alive[target] {
			p.met.rejected(rejServerDown)
			return OpResult{}, fmt.Errorf("%w: server %d", ErrServerDown, target)
		}
		if target != old && sh.effCaps != nil && sh.ev.Load(target) >= sh.effCaps[target] {
			p.met.rejected(rejNoCapacity)
			return OpResult{}, fmt.Errorf("%w: server %d is saturated", ErrNoCapacity, target)
		}
		if _, err := sh.ev.ApplyMove(local, target); err != nil {
			return OpResult{}, err
		}
		if target != old {
			p.noteAssign(sh, c, old, -1)
			p.noteAssign(sh, c, target, +1)
		}
		p.met.event(opMigrate)
		return p.clientResult(ctx, sp, sid, target), nil
	}
	// Strategy re-placement: lift the client out, ask the strategy, and
	// restore the old seat if nothing has room.
	if _, err := sh.ev.ApplyLeave(local); err != nil {
		return OpResult{}, err
	}
	p.noteAssign(sh, c, old, -1)
	s, err := p.place(sh, local, c)
	if err != nil {
		if _, rerr := sh.ev.ApplyJoin(local, old); rerr != nil {
			return OpResult{}, errors.Join(err, rerr)
		}
		p.noteAssign(sh, c, old, +1)
		return OpResult{}, err
	}
	p.met.event(opMigrate)
	return p.clientResult(ctx, sp, sid, s), nil
}

// KillServer marks server k dead and evacuates its clients shard by
// shard through each shard's strategy (ascending shard id, ascending
// client order — deterministic), each shard against the room the
// earlier ones left. Killing a dead server is idempotent.
// If an evacuation cannot be placed the plane returns the typed
// capacity error with the world left capacity-consistent (every client
// either has a live seat or is detached). A kill is a failover: it is
// journaled in the flight recorder and triggers a recorder dump.
func (p *Plane) KillServer(ctx context.Context, k int) (OpResult, int, error) {
	if k < 0 || k >= len(p.alive) {
		return OpResult{}, 0, fmt.Errorf("shard: server %d out of range [0,%d)", k, len(p.alive))
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
		return OpResult{Epoch: s.Epoch, Shard: -1, Server: k, D: s.D, CertifiedD: s.CertifiedD}, 0, nil
	}
	p.alive[k] = false
	p.dead++
	p.rebuildEffCaps()
	evacuated := 0
	finish := func(r OpResult, evacuated int, failed bool) {
		if sp != nil {
			sp.SetAttr(obs.Int("evacuated", evacuated), obs.Uint("epoch", r.Epoch))
		}
		p.jFailover.Record("kill", sp.TraceID(),
			obs.Int("server", k),
			obs.Int("evacuated", evacuated),
			obs.Int("dead", p.dead),
			obs.Uint("epoch", r.Epoch),
			obs.Str("evacuation_failed", fmt.Sprintf("%t", failed)))
		p.flight.Dump("server-kill")
	}
	for _, sh := range p.shards {
		p.refreshCaps(sh)
		for local := 0; local < len(sh.clients); local++ {
			if sh.ev.ServerOf(local) != k {
				continue
			}
			global := sh.clients[local]
			if _, err := sh.ev.ApplyLeave(local); err != nil {
				return OpResult{}, evacuated, err
			}
			p.noteAssign(sh, global, k, -1)
			if _, err := p.place(sh, local, global); err != nil {
				p.met.event(opKill)
				r := p.opResult(ctx, -1, k)
				finish(r, evacuated, true)
				return r, evacuated, err
			}
			evacuated++
		}
	}
	p.met.event(opKill)
	r := p.opResult(ctx, -1, k)
	finish(r, evacuated, false)
	return r, evacuated, nil
}

// RestartServer brings server k back. Restarting a live server is
// idempotent.
func (p *Plane) RestartServer(ctx context.Context, k int) (OpResult, error) {
	if k < 0 || k >= len(p.alive) {
		return OpResult{}, fmt.Errorf("shard: server %d out of range [0,%d)", k, len(p.alive))
	}
	ctx, sp := obs.Child(ctx, "plane.restart")
	defer sp.End()
	sp.SetAttr(obs.Int("server", k))
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.begin(sp)()
	if !p.alive[k] {
		p.alive[k] = true
		p.dead--
		p.rebuildEffCaps()
		p.met.event(opRestart)
		p.jFailover.Record("restart", sp.TraceID(),
			obs.Int("server", k), obs.Int("dead", p.dead))
	}
	r := p.opResult(ctx, -1, k)
	sp.SetAttr(obs.Uint("epoch", r.Epoch))
	return r, nil
}

// rebuildEffCaps refreshes an uncapacitated plane's effective capacity
// vectors after a liveness change (dynamic.EffectiveCaps over each
// shard's own client count), its only capacity work. Callers hold p.mu.
func (p *Plane) rebuildEffCaps() {
	if p.opts.Capacities != nil {
		return
	}
	for _, sh := range p.shards {
		sh.effCaps = dynamic.EffectiveCaps(nil, p.alive, len(sh.clients))
	}
}

// refreshCaps hands a capacitated plane's shard sh the world's pool
// before its decision: per live server, sh's load plus the room left,
// the capacity minus the world's load; 0 per dead server. sh's own
// placements leave it valid. Callers hold p.mu.
func (p *Plane) refreshCaps(sh *shardState) {
	caps := p.opts.Capacities
	if caps == nil {
		return
	}
	for k, c := range caps {
		if !p.alive[k] {
			sh.effCaps[k] = 0
			continue
		}
		sh.effCaps[k] = sh.ev.Load(k) + (c - p.loads[k])
	}
}

// RepairShard runs one shard's strategy repair at virtual time now and
// returns the number of migrations it performed. The strategy mutates
// the evaluator directly, so the cell-level summary is reconciled from
// the assignment diff afterwards.
func (p *Plane) RepairShard(ctx context.Context, id int, now float64) (int, error) {
	if id < 0 || id >= len(p.shards) {
		return 0, fmt.Errorf("shard: id %d out of range [0,%d)", id, len(p.shards))
	}
	ctx, sp := obs.Child(ctx, "plane.repair")
	defer sp.End()
	sp.SetAttr(obs.Int("shard", id))
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.begin(sp)()
	sh := p.shards[id]
	//lint:ignore dialint/wallclock-determinism lastRepair feeds only the health endpoint's staleness display, never a replayed decision
	sh.lastRepair = time.Now()
	before := sh.ev.Assignment()
	p.refreshCaps(sh)
	moves := sh.strat.Repair(sh.ev, sh.effCaps, now)
	sp.SetAttr(obs.Int("moves", moves))
	if moves != 0 {
		p.reconcileCells(sh, before)
		p.publishLocked(ctx)
	}
	return moves, nil
}

// Resolve re-solves every shard's active sub-instance from scratch with
// the named assignment algorithm (seeded) and applies the result — the
// per-shard batch solver counterpart of the online strategies. Shards
// re-solve in ascending id, each against the room the earlier ones
// left. It returns the total number of clients that moved.
func (p *Plane) Resolve(ctx context.Context, algName string, seed int64) (OpResult, int, error) {
	alg, err := assign.ByNameSeeded(algName, seed)
	if err != nil {
		return OpResult{}, 0, err
	}
	ctx, sp := obs.Child(ctx, "plane.resolve")
	defer sp.End()
	sp.SetAttr(obs.Str("algorithm", algName))
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.begin(sp)()
	moved := 0
	for _, sh := range p.shards {
		if sh.active == 0 {
			continue
		}
		activeLocal := make([]int, 0, sh.active)
		for local := range sh.clients {
			if sh.ev.ServerOf(local) != core.Unassigned {
				activeLocal = append(activeLocal, local)
			}
		}
		sub := sh.in.Restrict(activeLocal)
		p.refreshCaps(sh)
		a, err := alg.Assign(sub, sh.effCaps)
		if err != nil {
			return OpResult{}, moved, fmt.Errorf("shard %d: %s: %w", sh.id, algName, err)
		}
		before := sh.ev.Assignment()
		for i, local := range activeLocal {
			if sh.ev.ServerOf(local) != a[i] {
				sh.ev.Move(local, a[i])
				moved++
			}
		}
		p.reconcileCells(sh, before)
	}
	p.met.event(opResolve)
	r := p.opResult(ctx, -1, core.Unassigned)
	sp.SetAttr(obs.Int("moved", moved), obs.Uint("epoch", r.Epoch), obs.F64("d", r.D))
	return r, moved, nil
}

// noteAssign records that client c of shard sh joined (delta +1) or
// left (delta -1) server s, after the shard's evaluator did. It is the
// one place the world changes: the assignment and loads publish copies,
// the shard's active count, its cell occupancy, and its certified bound
// on s. The bound rises when a (cell, s) count moves 0 → 1 and is
// rescanned over the shard's cells only when the cell that empties is
// one that realizes it; any other cell leaving keeps the max. A move is
// a -1 on the old server, then a +1 on the new.
func (p *Plane) noteAssign(sh *shardState, c, s, delta int) {
	if s == core.Unassigned {
		return
	}
	if delta > 0 {
		p.assign[c] = s
	} else {
		p.assign[c] = core.Unassigned
	}
	p.loads[s] += delta
	sh.active += delta
	sh.dirty = true
	j := p.clientCell[c]
	ns := len(p.loads)
	p.cellLoad[j*ns+s] += int32(delta)
	switch n, v := p.cellLoad[j*ns+s], p.certDist[j][s]; {
	case n == 1 && delta > 0 && v > sh.bound[s]:
		sh.bound[s] = v
	case n == 0 && v >= sh.bound[s]:
		sh.bound[s] = p.boundOf(sh, s)
	}
}

// boundOf folds shard sh's certified bound on server s from scratch:
// the max of certDist[j][s] over its cells j with clients on s, or -1.
func (p *Plane) boundOf(sh *shardState, s int) float64 {
	ns := len(p.loads)
	b := -1.0
	for _, j := range sh.cells {
		if p.cellLoad[j*ns+s] > 0 {
			b = max(b, p.certDist[j][s])
		}
	}
	return b
}

// reconcileCells brings the world up to date with the assignment diff
// after a strategy or solver mutated the evaluator directly.
func (p *Plane) reconcileCells(sh *shardState, before core.Assignment) {
	for local, prev := range before {
		cur := sh.ev.ServerOf(local)
		if cur == prev {
			continue
		}
		c := sh.clients[local]
		p.noteAssign(sh, c, prev, -1)
		p.noteAssign(sh, c, cur, +1)
	}
}

// EvaluatorStats sums the per-shard evaluator work counters — tests use
// it to prove the plane never fell back to O(world) repair.
func (p *Plane) EvaluatorStats() core.EvaluatorStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total core.EvaluatorStats
	for _, sh := range p.shards {
		st := sh.ev.Stats()
		total.Recomputes += st.Recomputes
		total.EccScans += st.EccScans
		total.HeapOps += st.HeapOps
		total.PairTouches += st.PairTouches
		total.PairRescans += st.PairRescans
	}
	return total
}
