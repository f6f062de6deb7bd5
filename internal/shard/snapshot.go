package shard

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

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
// The assignment and loads are copies of the world noteAssign keeps, a
// dirty shard's summary copies its evaluator's eccentricities and its
// incremental bound, and each pair scan reruns only when its merged
// vector changed. The reconciliation is recorded as a plane.publish
// child span of the context's span (if traced) and every epoch bump
// lands in the flight recorder's epoch journal.
func (p *Plane) publishLocked(ctx context.Context) *Snapshot {
	start := time.Now()
	_, sp := obs.Child(ctx, "plane.publish")
	defer sp.End()
	p.epoch++
	snap := &Snapshot{
		Epoch:      p.epoch,
		Assignment: slices.Clone(p.assign),
		Loads:      slices.Clone(p.loads),
		MaxRho:     p.maxRho,
		Shards:     make([]ShardSummary, len(p.shards)),
		Alive:      slices.Clone(p.alive),
	}

	// Merged eccentricities: a server's true eccentricity over the
	// whole population is the max of its per-shard values, because the
	// shards partition the clients (max over a disjoint union = max of
	// per-part maxima, exactly, in floats as in reals).
	ecc, bound := p.eccBuf, p.boundBuf
	for k := range ecc {
		ecc[k], bound[k] = -1, -1
	}
	dirty := 0
	for _, sh := range p.shards {
		if sh.dirty {
			dirty++
			sh.rebuildSummary(p)
			sh.dirty = false
			sh.summaryEpoch = p.epoch
		}
		snap.Shards[sh.id] = sh.summary
		snap.Active += sh.summary.Active
		for k := range ecc {
			if v := sh.summary.Ecc[k]; v > ecc[k] {
				ecc[k] = v
			}
			if v := sh.summary.BoundEcc[k]; v > bound[k] {
				bound[k] = v
			}
		}
	}
	// Every shard holds the same server-server table, bit for bit.
	ss := p.shards[0].in.FlatServerServer()
	snap.D = p.dScan.eval(ss, ecc)
	snap.CertifiedD = p.certScan.eval(ss, bound)
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
		if b := math.Float64bits(snap.D); b != p.dAttrBits || p.dAttr.Key == "" {
			p.dAttr, p.dAttrBits = obs.F64("d", snap.D), b
		}
		p.jEpoch.Record("publish", sp.TraceID(),
			obs.Uint("epoch", snap.Epoch), obs.Int("dirty", dirty),
			p.dAttr, obs.Int("active", snap.Active))
	}
	return snap
}

// pairScan caches one perfkit.MaxPathEcc result with the vector it was
// computed from. D is a pure function of the vector and the server
// table, so an unchanged vector (bit for bit) reuses the last value;
// a new server table (ApplyDrift) must reset the cache.
type pairScan struct {
	vec   []float64
	val   float64
	valid bool
}

// eval returns perfkit.MaxPathEcc(ss, vec), rerunning the scan only
// when vec differs from the cached vector in some bit.
func (c *pairScan) eval(ss *perfkit.FlatMatrix, vec []float64) float64 {
	if c.valid && slices.EqualFunc(vec, c.vec, sameBits) {
		return c.val
	}
	c.val = perfkit.MaxPathEcc(ss, vec)
	c.vec = append(c.vec[:0], vec...)
	c.valid = true
	return c.val
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

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
// evaluator (exact eccentricities) and its incremental cell-level bound.
// A summary is published as is, so it gets fresh vectors.
func (sh *shardState) rebuildSummary(p *Plane) {
	ns := len(p.opts.Servers)
	vecs := make([]float64, 2*ns)
	sum := ShardSummary{
		Shard:    sh.id,
		Active:   sh.active,
		D:        sh.ev.D(),
		Ecc:      vecs[:ns:ns],
		BoundEcc: vecs[ns:],
	}
	for k := 0; k < ns; k++ {
		sum.Ecc[k] = sh.ev.Eccentricity(k)
	}
	// After coordinate drift the cell geometry no longer describes the
	// live metric, so the only honest certificate is the exact value.
	if p.drifted {
		copy(sum.BoundEcc, sum.Ecc)
	} else {
		copy(sum.BoundEcc, sh.bound)
	}
	sh.summary = sum
}

// CertGap returns the published certified-bound slack CertifiedD - D,
// clamped at zero (the bound can be tight).
func (s *Snapshot) CertGap() float64 {
	return math.Max(0, s.CertifiedD-s.D)
}
