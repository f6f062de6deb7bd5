package shard

import (
	"context"
	"fmt"
	"math"
	"time"

	"diacap/internal/core"
	"diacap/internal/obs"
	"diacap/internal/perfkit"
)

// ErrStaleEpoch reports a snapshot read that named an epoch other than
// the published one. It carries both epochs so callers (the HTTP layer
// surfaces it as 409 with the current epoch in a header) can tell the
// client where the world moved.
type ErrStaleEpoch struct {
	// Requested is the epoch the reader asked for.
	Requested uint64
	// Current is the epoch of the published snapshot.
	Current uint64
}

func (e *ErrStaleEpoch) Error() string {
	return fmt.Sprintf("shard: stale epoch %d (current %d)", e.Requested, e.Current)
}

// ShardSummary is one shard's contribution to the reconciled world
// state: per-server eccentricities (exact) and certified cell-level
// bounds. Summaries are what crosses the shard boundary — O(U) per
// shard, never O(clients).
type ShardSummary struct {
	// Shard is the shard id.
	Shard int
	// Active is the shard's active client count.
	Active int
	// D is the shard-local max interaction path (over this shard's
	// clients only; informational — the global D is reconciled from
	// eccentricities, not from shard-local Ds).
	D float64
	// Ecc[k] is the exact eccentricity of server k over this shard's
	// active clients (-1 when none).
	Ecc []float64
	// BoundEcc[k] over-approximates Ecc[k] from cell-level state: the
	// max over occupied cells of rep-to-server latency plus the cell
	// radius ρ (-1 when server k is empty in this shard).
	BoundEcc []float64
}

// Snapshot is the immutable published world state. Readers obtain it
// lock-free through Current/At and must not mutate it.
type Snapshot struct {
	// Epoch is the monotone publication counter (first snapshot = 1).
	Epoch uint64
	// Assignment[c] is the server of client c, or core.Unassigned.
	Assignment []int
	// Loads[k] is the global load of server k.
	Loads []int
	// Active is the number of assigned clients.
	Active int
	// D is the exact global max interaction path, reconciled from the
	// merged per-shard eccentricities — bit-identical to a single
	// evaluator over the whole population.
	D float64
	// CertifiedD is the certified upper bound reconciled from the
	// cell-level summaries: D ≤ CertifiedD ≤ D + 4·MaxRho (each
	// endpoint eccentricity of the pair scan can overshoot its exact
	// value by at most 2·MaxRho).
	CertifiedD float64
	// MaxRho is the largest cell radius; CertifiedD - D ≤ 4·MaxRho.
	MaxRho float64
	// Shards holds the per-shard summaries the reconciliation consumed.
	Shards []ShardSummary
	// Alive[k] reports whether server k is up.
	Alive []bool
}

// Current returns the published snapshot (lock-free).
//
//dialint:hotpath
func (p *Plane) Current() *Snapshot { return p.snap.Load() }

// At returns the published snapshot if its epoch is exactly epoch, and
// *ErrStaleEpoch otherwise. This is the conditional read clients use to
// detect that their cached view was retired.
func (p *Plane) At(epoch uint64) (*Snapshot, error) {
	s := p.snap.Load()
	if s.Epoch != epoch {
		p.met.staleRead()
		return nil, &ErrStaleEpoch{Requested: epoch, Current: s.Epoch}
	}
	return s, nil
}

// Epoch returns the published epoch (lock-free).
//
//dialint:hotpath
func (p *Plane) Epoch() uint64 { return p.snap.Load().Epoch }

// publishLocked rebuilds dirty shard summaries, reconciles the global
// state, and atomically swaps in the next snapshot. Callers hold p.mu.
// The reconciliation is recorded as a plane.publish child span of the
// context's span (if traced) and every epoch bump lands in the flight
// recorder's epoch journal.
func (p *Plane) publishLocked(ctx context.Context) *Snapshot {
	start := time.Now()
	_, sp := obs.Child(ctx, "plane.publish")
	defer sp.End()
	ns := len(p.opts.Servers)
	p.epoch++
	dirty := 0
	for _, sh := range p.shards {
		if sh.dirty {
			dirty++
		}
	}
	snap := &Snapshot{
		Epoch:      p.epoch,
		Assignment: make([]int, len(p.opts.Clients)),
		Loads:      make([]int, ns),
		MaxRho:     p.maxRho,
		Shards:     make([]ShardSummary, len(p.shards)),
		Alive:      append([]bool(nil), p.alive...),
	}

	// Merged eccentricities: a server's true eccentricity over the
	// whole population is the max of its per-shard values, because the
	// shards partition the clients (max over a disjoint union = max of
	// per-part maxima, exactly, in floats as in reals).
	ecc := make([]float64, ns)
	bound := make([]float64, ns)
	for k := range ecc {
		ecc[k], bound[k] = -1, -1
	}
	for _, sh := range p.shards {
		if sh.dirty {
			sh.rebuildSummary(p)
			sh.dirty = false
			sh.summaryEpoch = p.epoch
		}
		snap.Shards[sh.id] = sh.summary
		snap.Active += sh.summary.Active
		for i, c := range sh.clients {
			s := sh.ev.ServerOf(i)
			snap.Assignment[c] = s
			if s != core.Unassigned {
				snap.Loads[s]++
			}
		}
		for k := 0; k < ns; k++ {
			if v := sh.summary.Ecc[k]; v > ecc[k] {
				ecc[k] = v
			}
			if v := sh.summary.BoundEcc[k]; v > bound[k] {
				bound[k] = v
			}
		}
	}
	snap.D = perfkit.MaxPathEcc(p.ss, ecc)
	snap.CertifiedD = perfkit.MaxPathEcc(p.ss, bound)
	p.snap.Store(snap)
	p.met.published(snap, time.Since(start).Seconds())
	// Guarded so an uninstrumented publish skips attr rendering: both
	// calls are nil-safe no-ops, but their arguments are built eagerly
	// and every mutation passes through here.
	if sp != nil {
		sp.SetAttr(obs.Uint("epoch", snap.Epoch), obs.Int("dirty", dirty),
			obs.F64("d", snap.D), obs.F64("certifiedD", snap.CertifiedD),
			obs.Int("active", snap.Active))
	}
	if p.jEpoch != nil {
		p.jEpoch.Record("publish", sp.TraceID(),
			obs.Uint("epoch", snap.Epoch), obs.Int("dirty", dirty),
			obs.F64("d", snap.D), obs.Int("active", snap.Active))
	}
	return snap
}

// ShardHealth is one shard's health line as exposed by /healthz: its
// current summary epoch (the plane epoch at which the summary was last
// rebuilt — a lagging value marks a quiet shard, not a broken one),
// active client count, and last repair-pass wall time (zero until the
// first RepairShard).
type ShardHealth struct {
	Shard        int       `json:"shard"`
	SummaryEpoch uint64    `json:"summaryEpoch"`
	Active       int       `json:"active"`
	LastRepair   time.Time `json:"lastRepair"`
}

// Health reports per-shard health for liveness endpoints: one entry per
// shard, ascending shard id.
func (p *Plane) Health() []ShardHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ShardHealth, len(p.shards))
	for i, sh := range p.shards {
		out[i] = ShardHealth{
			Shard:        sh.id,
			SummaryEpoch: sh.summaryEpoch,
			Active:       sh.active,
			LastRepair:   sh.lastRepair,
		}
	}
	return out
}

// rebuildSummary refreshes one shard's published summary from its
// evaluator (exact eccentricities) and its cell-level loads (certified
// bounds).
func (sh *shardState) rebuildSummary(p *Plane) {
	ns := len(p.opts.Servers)
	sum := ShardSummary{
		Shard:    sh.id,
		Active:   sh.active,
		D:        sh.ev.D(),
		Ecc:      make([]float64, ns),
		BoundEcc: make([]float64, ns),
	}
	for k := 0; k < ns; k++ {
		sum.Ecc[k] = sh.ev.Eccentricity(k)
		sum.BoundEcc[k] = -1
	}
	// After coordinate drift the cell geometry no longer describes the
	// live metric, so the only honest certificate is the exact value.
	if p.drifted {
		copy(sum.BoundEcc, sum.Ecc)
		sh.summary = sum
		return
	}
	// Cell-level certified bound: for every occupied (cell, server)
	// pair, rep-to-server latency plus the cell radius dominates every
	// member's true distance by the coordinate triangle inequality.
	// Iteration order over the map cannot affect the result — max is
	// order-independent — but the summary itself is fully determined by
	// the (cell, server) occupancy, which is deterministic.
	//lint:ignore dialint/map-iter-order pure max fold; max is commutative and associative, so iteration order cannot reach the summary
	for j, row := range sh.cellLoad {
		rd := p.repDist[j]
		rho := p.cells[j].Rho
		for k, n := range row {
			if n > 0 {
				if v := rd[k] + rho; v > sum.BoundEcc[k] {
					sum.BoundEcc[k] = v
				}
			}
		}
	}
	sh.summary = sum
}

// CertGap returns the published certified-bound slack CertifiedD - D,
// clamped at zero (the bound can be tight).
func (s *Snapshot) CertGap() float64 {
	return math.Max(0, s.CertifiedD-s.D)
}
