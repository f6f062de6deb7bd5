package service

// The serving endpoints: POST /v1/assign-one and POST /v1/assign-batch
// answer "which server should this prospective client attach to"
// straight from the shard plane's published snapshot. Unlike
// /v1/shard/assign these never mutate the plane and never take its
// mutex — the whole request rides one lock-free snapshot read
// (shard.Plane.View), so the serving tier scales with reader cores no
// matter how busy the control plane is. The batch endpoint amortizes
// the snapshot resolution, the admission decision, and one perfkit
// evaluation across every client in the request.
//
// Atomicity: exactly one admission decision is taken per request,
// before any parsing or computation, and the response is fully encoded
// into a pooled buffer before the first byte is written. A shed state
// entered while a batch is being resolved therefore cannot split it —
// every response is either a complete assignment for all requested
// clients or a whole-request 429 with Retry-After, never a partial
// batch. Stale-epoch conditional reads are rejected with 409 and the
// live epoch in the X-Diacap-Epoch header, mirroring
// /v1/shard/snapshot; successful responses carry the epoch in the body
// instead (a header write would allocate on the steady path).

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"diacap/internal/obs"
	"diacap/internal/shard"
)

// AssignOneRequest documents the /v1/assign-one request shape. The
// handler does not decode into this struct — the serving path uses the
// pooled codec in batchcodec.go — but clients and tests marshal from
// it, and the fuzz and differential tests keep the two in lockstep.
type AssignOneRequest struct {
	// Coord is the prospective client's network coordinate as a
	// [x, y], [x, y, z], or [x, y, z, h] number array.
	Coord []float64 `json:"coord"`
	// Epoch, if set, pins the resolution to that exact published epoch;
	// a retired epoch is rejected with 409. Omitted means the current
	// snapshot.
	Epoch *uint64 `json:"epoch,omitempty"`
}

// AssignBatchRequest documents the /v1/assign-batch request shape (see
// AssignOneRequest).
type AssignBatchRequest struct {
	// Coords are the prospective clients' network coordinates.
	Coords [][]float64 `json:"coords"`
	Epoch  *uint64     `json:"epoch,omitempty"`
}

// AssignOneResponse is the unary serving result.
type AssignOneResponse struct {
	// Epoch is the snapshot the resolution was answered under.
	Epoch uint64 `json:"epoch"`
	// D and CertifiedD describe the published assignment's quality at
	// that epoch (the interactivity the joining client would share).
	D          float64 `json:"d"`
	CertifiedD float64 `json:"certifiedD"`
	// Server is the nearest admissible server's index, or -1 when every
	// server is dead or at capacity.
	Server int `json:"server"`
	// LatencyMs is the coordinate-predicted one-way latency to Server,
	// or -1 when Server is -1.
	LatencyMs float64 `json:"latencyMs"`
}

// AssignBatchResponse is the batch serving result; Servers[i] and
// LatencyMs[i] answer Coords[i].
type AssignBatchResponse struct {
	Epoch      uint64    `json:"epoch"`
	D          float64   `json:"d"`
	CertifiedD float64   `json:"certifiedD"`
	Servers    []int     `json:"servers"`
	LatencyMs  []float64 `json:"latencyMs"`
}

func (s *Server) handleAssignOne(w http.ResponseWriter, r *http.Request) {
	s.serveResolve(w, r, "/v1/assign-one", true)
}

func (s *Server) handleAssignBatch(w http.ResponseWriter, r *http.Request) {
	s.serveResolve(w, r, "/v1/assign-batch", false)
}

// serveResolve is the shared serving handler. The cold paths (method
// rejection, admission shed, error rendering) live here; the warm path
// is resolveRequest, which is annotated and allocation-free at steady
// state.
func (s *Server) serveResolve(w http.ResponseWriter, r *http.Request, endpoint string, unary bool) {
	// The request's single admission decision: after this point the
	// batch is computed and written in full (see the package comment on
	// atomicity).
	if s.admit(w, r, endpoint) {
		return
	}
	sc := getServeScratch()
	defer putServeScratch(sc)
	start := time.Now()
	_, rsp := obs.Child(r.Context(), "service.resolve")
	err := s.resolveRequest(w, r, sc, unary)
	if rsp != nil {
		// Guarded so the untraced steady state never builds the variadic
		// attr slice (it heap-escapes alongside the pooled scratch).
		rsp.SetAttr(obs.Int("clients", len(sc.coords)))
	}
	rsp.End()
	if err == nil {
		s.recordResolve(unary, len(sc.coords), time.Since(start))
		return
	}
	var stale *shard.ErrStaleEpoch
	if errors.As(err, &stale) {
		w.Header().Set(epochHeader, strconv.FormatUint(stale.Current, 10))
		s.fail(w, r, &httpError{status: http.StatusConflict, msg: err.Error()})
		return
	}
	s.fail(w, r, err, "clients", len(sc.coords))
}

// resolveRequest is the steady-state serving path: read the body, parse
// it, pin a snapshot view, resolve every coordinate, encode, write.
// After warm-up (pooled buffers at capacity) it performs zero heap
// allocations; alloc_test.go pins that with AllocsPerRun.
//
//dialint:hotpath
func (s *Server) resolveRequest(w http.ResponseWriter, r *http.Request, sc *serveScratch, unary bool) error {
	if err := readServeBody(r, sc, s.opts.MaxBodyBytes); err != nil {
		return err
	}
	epoch, hasEpoch, err := parseResolveRequest(sc, s.opts.MaxBatchClients, unary)
	if err != nil {
		return err
	}
	var view shard.ResolveView
	if hasEpoch {
		if view, err = s.opts.Shard.ViewAt(epoch); err != nil {
			return err
		}
	} else {
		view = s.opts.Shard.View()
	}
	n := len(sc.coords)
	sc.out = growInts(sc.out, n)
	sc.lat = growFloats(sc.lat, n)
	view.ResolveInto(sc.coords, &sc.cs, sc.out, sc.lat)
	snap := view.Snap
	sc.resp = encodeResolveResponse(sc.resp[:0], snap.Epoch, snap.D, snap.CertifiedD, sc.out, sc.lat, unary)
	h := w.Header()
	if _, ok := h["Content-Type"]; !ok {
		h["Content-Type"] = ctJSON
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.resp)
	return nil
}

// recordResolve publishes the per-endpoint resolved-client counter
// (pre-resolved at New time so the serving path never performs a
// labeled metric lookup).
func (s *Server) recordResolve(unary bool, clients int, _ time.Duration) {
	var c *obs.Counter
	if unary {
		c = s.mResolveOne
	} else {
		c = s.mResolveBatch
	}
	if c != nil {
		c.Add(uint64(clients))
	}
}
