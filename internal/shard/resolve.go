package shard

// The serving read path: answering "which server should this client
// attach to" for prospective clients, straight from the published
// snapshot. This is the request-path complement of the mutating
// control-plane ops — it never takes p.mu, never touches the
// evaluator, and costs one atomic snapshot load per batch no matter how
// many query points ride the request. The per-point work is one
// coordinate-predicted latency row plus a perfkit nearest-server argmin,
// so a broker can resolve thousands of prospective clients against one
// consistent world view in a single call.

import (
	"math"

	"diacap/internal/core"
	"diacap/internal/latency"
	"diacap/internal/perfkit"
)

// ResolveView pins one published snapshot together with the plane's
// immutable serving geometry (server coordinates, global capacities).
// All resolutions against the same view are answered under the same
// world state, so a batch is internally consistent by construction.
// Views are values: copy freely, hold no locks, and read nothing the
// plane mutates in place.
type ResolveView struct {
	// Snap is the pinned snapshot (epoch, liveness, loads, D).
	Snap    *Snapshot
	servers []latency.Coord
	caps    core.Capacities
}

// View returns a resolve view over the currently published snapshot
// (lock-free: one atomic load).
//
//dialint:hotpath
func (p *Plane) View() ResolveView {
	return ResolveView{Snap: p.snap.Load(), servers: p.opts.Servers, caps: p.opts.Capacities}
}

// ViewAt returns a view pinned to exactly epoch, and *ErrStaleEpoch when
// that epoch is no longer the published one — the same conditional-read
// protocol as At.
func (p *Plane) ViewAt(epoch uint64) (ResolveView, error) {
	s, err := p.At(epoch)
	if err != nil {
		return ResolveView{}, err
	}
	return ResolveView{Snap: s, servers: p.opts.Servers, caps: p.opts.Capacities}, nil
}

// NumServers returns the server count of the view's plane.
func (v *ResolveView) NumServers() int { return len(v.servers) }

// ServerCoord returns server k's coordinate.
func (v *ResolveView) ServerCoord(k int) latency.Coord { return v.servers[k] }

// Admissible reports whether server k can accept new attachments under
// the pinned snapshot: alive, and below its global capacity when the
// plane is capacitated. (Loads counts the assigned universe; a resolve
// is advisory and does not reserve a seat.)
func (v *ResolveView) Admissible(k int) bool {
	return v.Snap.Alive[k] && (v.caps == nil || v.Snap.Loads[k] < v.caps[k])
}

// FillDistances fills cs — already sized len(coords) × NumServers —
// with the coordinate-predicted one-way latency from each query point
// to each server, writing +Inf into columns of inadmissible servers so
// a nearest-server reduction can never choose one.
//
//dialint:hotpath
func (v *ResolveView) FillDistances(coords []latency.Coord, cs *perfkit.FlatMatrix) {
	inf := math.Inf(1)
	alive := v.Snap.Alive
	loads := v.Snap.Loads
	caps := v.caps
	for i := range coords {
		c := coords[i]
		row := cs.Row(i)
		for k := range v.servers {
			if !alive[k] || (caps != nil && loads[k] >= caps[k]) {
				row[k] = inf
				continue
			}
			row[k] = c.LatencyTo(v.servers[k])
		}
	}
}

// ResolveInto resolves every query coordinate to its nearest admissible
// server under the pinned snapshot: out[i] gets the chosen server index
// (ties toward the lower index, matching perfkit.NearestInto) and
// lat[i] the predicted one-way latency in ms. When no server is
// admissible — every one dead or saturated — out[i] is -1 and lat[i]
// is -1, uniformly for the whole batch (admissibility is a per-snapshot
// property, not a per-point one). cs is caller-provided scratch; it is
// resized to the batch and fully overwritten. out and lat must have
// len(coords) entries.
//
// The whole batch costs one snapshot resolution and one perfkit
// evaluation: a fill pass plus one NearestInto over the flat row-major
// table. Resolving the points one at a time through views of the same
// epoch yields bit-identical servers and latencies — each row is
// independent, and the kernel scans rows in isolation.
//
//dialint:hotpath
func (v *ResolveView) ResolveInto(coords []latency.Coord, cs *perfkit.FlatMatrix, out []int, lat []float64) {
	cs.Resize(len(coords), len(v.servers))
	v.FillDistances(coords, cs)
	perfkit.NearestInto(cs, out)
	for i := range coords {
		d := cs.At(i, out[i])
		if math.IsInf(d, 1) {
			out[i], lat[i] = -1, -1
			continue
		}
		lat[i] = d
	}
}
