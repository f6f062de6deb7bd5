package shard

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"diacap/internal/obs"
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
	// D is the exact global max interaction path, maintained by the
	// plane's evaluator over the whole population.
	D float64
	// CertifiedD certifies D from above. D is exact, so it is its own
	// certificate: CertifiedD equals D, bit for bit.
	CertifiedD float64
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

// publishLocked atomically swaps in the next snapshot of the world.
// Callers hold p.mu. The assignment, loads and D are the evaluator's.
// The publish is recorded as a plane.publish child span of the context's span (if
// traced) and every epoch bump lands in the flight recorder's epoch
// journal.
func (p *Plane) publishLocked(ctx context.Context) *Snapshot {
	start := time.Now()
	_, sp := obs.Child(ctx, "plane.publish")
	defer sp.End()
	p.epoch++
	d := p.ev.D()
	snap := &Snapshot{
		Epoch:      p.epoch,
		Assignment: p.ev.Assignment(),
		Loads:      make([]int, len(p.alive)),
		D:          d,
		CertifiedD: d,
		Alive:      slices.Clone(p.alive),
	}
	for k := range snap.Loads {
		snap.Loads[k] = p.ev.Load(k)
		snap.Active += snap.Loads[k]
	}
	p.snap.Store(snap)
	p.met.published(snap, time.Since(start).Seconds())
	// Guarded so an uninstrumented publish skips attr rendering: both
	// calls are nil-safe no-ops, but their arguments are built eagerly
	// and every mutation passes through here.
	if sp != nil {
		sp.SetAttr(obs.Uint("epoch", snap.Epoch), obs.F64("d", snap.D), obs.Int("active", snap.Active))
	}
	if p.jEpoch != nil {
		if b := math.Float64bits(snap.D); b != p.dAttrBits || p.dAttr.Key == "" {
			p.dAttr, p.dAttrBits = obs.F64("d", snap.D), b
		}
		p.jEpoch.Record("publish", sp.TraceID(),
			obs.Uint("epoch", snap.Epoch), p.dAttr, obs.Int("active", snap.Active))
	}
	return snap
}
