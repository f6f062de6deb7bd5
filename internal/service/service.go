// Package service exposes the client assignment system as an HTTP/JSON
// API — the operational form in which a game or DVE deployment would
// consume this library: a matchmaker or connection broker POSTs the
// current latency picture and receives the assignment, the minimum
// feasible lag δ = D, and the simulation-time offsets to configure the
// servers with.
//
// Endpoints:
//
//	GET  /healthz          liveness probe (build info, live-cluster state)
//	GET  /v1/algorithms    list assignment algorithms
//	POST /v1/assign        compute an assignment (see AssignRequest)
//	POST /v1/assign-coords scaled assignment from network coordinates,
//	                       no matrix and no MaxNodes limit (see
//	                       AssignCoordsRequest)
//	POST /v1/placement     choose server nodes (see PlacementRequest)
//	POST /v1/assign-one    resolve one prospective client to its nearest
//	                       admissible server from the published shard
//	                       snapshot (Options.Shard; see AssignOneRequest)
//	POST /v1/assign-batch  resolve a whole batch of prospective clients
//	                       under one snapshot and one admission decision
//	                       (Options.Shard; see AssignBatchRequest)
//	POST /v1/shard/assign  mutate the assignment control plane
//	                       (Options.Shard; see ShardAssignRequest)
//	GET  /v1/shard/snapshot
//	                       published shard snapshot, optionally
//	                       conditional on ?epoch=N (409 + X-Diacap-Epoch
//	                       when the epoch was retired)
//	GET  /metrics          Prometheus text exposition (Options.Metrics)
//	GET  /debug/vars       JSON metric snapshot (Options.Metrics)
//	GET  /debug/pprof/     net/http/pprof (Options.EnablePprof)
//
// All errors are JSON: {"error": "..."} with a 4xx/5xx status.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"diacap/internal/assign"
	"diacap/internal/core"
	"diacap/internal/latency"
	"diacap/internal/obs"
	"diacap/internal/placement"
	"diacap/internal/scale"
	"diacap/internal/shard"
)

// Options bounds the service.
type Options struct {
	// MaxNodes rejects matrices larger than this (default 2048): the
	// lower-bound computation is O(n²·|S|).
	MaxNodes int
	// MaxBodyBytes bounds request bodies (default 64 MiB).
	MaxBodyBytes int64
	// RequestTimeout bounds the handling time of /v1/assign,
	// /v1/assign-coords and /v1/placement, the routes whose work no
	// request-size limit bounds; a request exceeding it receives 503
	// JSON. The handler stops at its next phase boundary (decode,
	// solve, lower bound, offsets, placement, metrics, the write) and
	// records and writes nothing; a phase that has already started
	// still runs to its end. Every other route runs inline: its
	// work is bounded by MaxBodyBytes, MaxBatchClients, the client
	// universe or one plane write, and a deadline could not stop a plane
	// write it gave up on. Zero disables the limit.
	RequestTimeout time.Duration
	// Metrics, if non-nil, receives request/assignment metrics and
	// enables GET /metrics (Prometheus text) and GET /debug/vars (JSON).
	Metrics *obs.Registry
	// Logger receives structured request and error logs (nil = discard).
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (opt-in:
	// profiles reveal internals and cost CPU to produce).
	EnablePprof bool
	// Live, if non-nil, is the live server cluster this service fronts.
	// /healthz then reports its size and dead-server count, and its
	// health gates /v1/assign, /v1/assign-coords, /v1/assign-one and
	// /v1/assign-batch: while the cluster churns they answer 429 +
	// Retry-After instead of starting a doomed computation, and
	// otherwise every request computes its own answer (see admission.go).
	Live LiveStatus
	// DrainTimeout bounds the in-flight drain of Serve on shutdown
	// (default 10 s).
	DrainTimeout time.Duration
	// Shard, if non-nil, is the assignment control plane this service
	// fronts; it mounts POST /v1/shard/assign,
	// GET /v1/shard/snapshot, and the zero-alloc serving endpoints
	// POST /v1/assign-one and POST /v1/assign-batch.
	Shard *shard.Plane
	// MaxBatchClients bounds one /v1/assign-batch request (default
	// 65536); larger batches get 413. The per-request scratch is
	// O(MaxBatchClients × servers) float64s at worst, so this bound is
	// also the pooled-memory bound.
	MaxBatchClients int
	// Tracer, if non-nil, samples requests into spans: traced responses
	// carry X-Diacap-Trace, span trees are served at /debug/trace, and
	// request-latency histograms gain trace exemplars. Incoming W3C
	// traceparent headers are honored (remote trace and sampling
	// decision adopted).
	Tracer *obs.Tracer
	// Flight is the always-on flight recorder behind /debug/flight. Nil
	// gets a private recorder (the recorder is cheap: fixed rings,
	// lock-free writes), so the journals are always recording; pass one
	// explicitly to share journals with the shard plane and live layer
	// or to set a dump writer.
	Flight *obs.Recorder

	// testHookAssign, when non-nil, runs inside every admitted /v1/assign
	// request before the computation starts. In-package tests use it to
	// hold a request in flight across a shutdown.
	testHookAssign func()
}

func (o *Options) fill() {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 2048
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 64 << 20
	}
	if o.MaxBatchClients <= 0 {
		o.MaxBatchClients = 65536
	}
	if o.Logger == nil {
		o.Logger = obs.Discard()
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	if o.Flight == nil {
		o.Flight = obs.NewRecorder(0)
	}
}

// Server is the HTTP handler.
type Server struct {
	opts      Options
	log       *slog.Logger
	algoTrace obs.AlgoTrace
	mux       *http.ServeMux
	admission *admission
	// Flight journals, resolved once (the recorder always exists after
	// fill, so these are never nil).
	jRequests  *obs.Journal
	jAdmission *obs.Journal
	// Serving-path counters and the in-flight gauge, resolved once at
	// New so the hot paths never look them up (nil without Metrics).
	mResolveOne   *obs.Counter
	mResolveBatch *obs.Counter
	mInflight     *obs.Gauge
}

// New builds the service.
func New(opts Options) *Server {
	opts.fill()
	s := &Server{opts: opts, log: opts.Logger, mux: http.NewServeMux()}
	s.jRequests = opts.Flight.Journal(JournalRequests, 0)
	s.jAdmission = opts.Flight.Journal(JournalAdmission, 0)
	if opts.Live != nil {
		s.admission = newAdmission(opts.Live)
	}
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/v1/algorithms", s.handleAlgorithms)
	s.mux.Handle("/v1/assign", timeoutJSON(s.handleAssign, opts.RequestTimeout))
	s.mux.Handle("/v1/assign-coords", timeoutJSON(s.handleAssignCoords, opts.RequestTimeout))
	s.mux.Handle("/v1/placement", timeoutJSON(s.handlePlacement, opts.RequestTimeout))
	if opts.Shard != nil {
		s.mux.HandleFunc("/v1/shard/assign", s.handleShardAssign)
		s.mux.HandleFunc("/v1/shard/snapshot", s.handleShardSnapshot)
		s.mux.HandleFunc("/v1/assign-one", s.handleAssignOne)
		s.mux.HandleFunc("/v1/assign-batch", s.handleAssignBatch)
		if reg := opts.Metrics; reg != nil {
			s.mResolveOne = reg.Counter(nResolveClients, hResolveClients,
				obs.L("endpoint", "/v1/assign-one"))
			s.mResolveBatch = reg.Counter(nResolveClients, hResolveClients,
				obs.L("endpoint", "/v1/assign-batch"))
		}
	}
	s.mountDebug()
	if opts.Metrics != nil {
		s.algoTrace = obs.MetricsTrace(opts.Metrics)
		s.mInflight = opts.Metrics.Gauge(nHTTPInflight, hHTTPInflight)
	}
	return s
}

// ServeHTTP implements http.Handler. It is the service's one request
// wrapper: it opens (or adopts, via W3C traceparent) the root span when
// a tracer samples the request, turns a handler panic into 500 JSON,
// and records every finished request, panicking or aborted ones
// included, under its final status: the HTTP metrics, the root span and
// the requests journal.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ep := normalizeEndpoint(r.URL.Path)
	var sp *obs.Span
	if t := s.opts.Tracer; t != nil {
		ctx := r.Context()
		if remote, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
			ctx, sp = t.RootFrom(ctx, "http "+ep, remote)
		} else {
			ctx, sp = t.Root(ctx, "http "+ep)
		}
		if sp != nil {
			// Before the handler runs: the client must learn the trace id
			// even when the handler fails or times out mid-write.
			w.Header().Set(TraceHeader, sp.TraceID())
			r = r.WithContext(ctx)
		}
	}
	sw := &statusWriter{ResponseWriter: w}
	if s.mInflight != nil {
		s.mInflight.Inc()
		defer s.mInflight.Dec()
	}
	start := time.Now()
	defer func() {
		rec := recover()
		abort := rec == http.ErrAbortHandler
		if rec != nil && !abort {
			// Best effort: if the handler already wrote a header this
			// degrades to appending, which the client's decoder rejects —
			// still better than a dropped connection.
			writeJSON(sw, http.StatusInternalServerError, map[string]string{"error": "internal server error"})
		}
		code := sw.status
		if code == 0 {
			// Nothing written: net/http answers 200, while an aborted
			// handler's connection is dropped unanswered, a failure.
			code = http.StatusOK
			if abort {
				code = http.StatusInternalServerError
			}
		}
		s.record(r, ep, sp, code, time.Since(start))
		if abort {
			// http.ErrAbortHandler keeps its stdlib meaning.
			panic(rec)
		}
	}()
	s.mux.ServeHTTP(sw, r)
}

// timeoutJSON bounds a route's handling time, answering 503 JSON on
// expiry; d ≤ 0 leaves the route unbounded. http.TimeoutHandler writes
// its timeout body to the outer ResponseWriter, so the Content-Type set
// here survives; on the fast path every endpoint writes JSON anyway. A
// handler panic is re-raised by TimeoutHandler in this goroutine, where
// ServeHTTP catches it. TimeoutHandler cannot stop the handler it gives
// up on, so New puts it only on the routes whose work no request-size
// limit bounds.
func timeoutJSON(next http.HandlerFunc, d time.Duration) http.Handler {
	if d <= 0 {
		return next
	}
	inner := http.TimeoutHandler(next, d, `{"error":"request timed out"}`+"\n")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		inner.ServeHTTP(w, r)
	})
}

// httpError is an error with a status code.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func unprocessable(format string, args ...any) *httpError {
	return &httpError{status: http.StatusUnprocessableEntity, msg: fmt.Sprintf(format, args...)}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errStatus maps an error to its HTTP status (500 unless it carries one).
func errStatus(err error) int {
	var he *httpError
	if errors.As(err, &he) {
		return he.status
	}
	return http.StatusInternalServerError
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	if r.Method != http.MethodPost {
		return &httpError{status: http.StatusMethodNotAllowed, msg: "POST required"}
	}
	// A local reader, not r.Body: a handler must not modify its request,
	// and a caller may serve the same *http.Request again.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid JSON: %v", err)
	}
	return nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"status":    "ok",
		"version":   obs.BuildVersion(),
		"goVersion": runtime.Version(),
	}
	if s.opts.Live != nil {
		dead := s.opts.Live.DeadServers()
		if len(dead) > 0 {
			resp["status"] = "degraded"
		}
		resp["live"] = map[string]any{
			"servers":     s.opts.Live.NumServers(),
			"deadServers": len(dead),
			"dead":        dead,
		}
	}
	if p := s.opts.Shard; p != nil {
		// The published snapshot and an atomic: a probe never waits
		// behind a plane write.
		snap := p.Current()
		resp["shard"] = map[string]any{
			"epoch":      snap.Epoch,
			"active":     snap.Active,
			"d":          snap.D,
			"certifiedD": snap.CertifiedD,
			"lastRepair": p.LastRepair(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// AlgorithmInfo describes one algorithm in the listing.
type AlgorithmInfo struct {
	Name        string `json:"name"`
	Capacitated bool   `json:"capacitated"`
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, r, &httpError{status: http.StatusMethodNotAllowed, msg: "GET required"})
		return
	}
	out := make([]AlgorithmInfo, 0, 4)
	for _, alg := range assign.All() {
		out = append(out, AlgorithmInfo{Name: alg.Name(), Capacitated: true})
	}
	writeJSON(w, http.StatusOK, map[string]any{"algorithms": out})
}

// AssignRequest asks for a client assignment.
type AssignRequest struct {
	// Matrix is the complete pairwise latency matrix in milliseconds.
	Matrix [][]float64 `json:"matrix"`
	// Servers are node indices hosting servers.
	Servers []int `json:"servers"`
	// Clients are node indices hosting clients; empty means every node.
	Clients []int `json:"clients,omitempty"`
	// Algorithm names the algorithm (default "Distributed-Greedy").
	Algorithm string `json:"algorithm,omitempty"`
	// Capacities optionally limits clients per server (aligned with
	// Servers).
	Capacities []int `json:"capacities,omitempty"`
	// IncludeOffsets adds the Section II-C simulation-time offsets to the
	// response.
	IncludeOffsets bool `json:"includeOffsets,omitempty"`
	// IncludeLowerBound adds the theoretical lower bound and normalized
	// interactivity (cost: O(|C|²·|S|)).
	IncludeLowerBound bool `json:"includeLowerBound,omitempty"`
	// Seed drives randomized algorithms (e.g. "Random", "Anneal") for
	// reproducible responses; omitted means a time-based seed.
	Seed *int64 `json:"seed,omitempty"`
}

// AssignResponse is the result.
type AssignResponse struct {
	Algorithm string `json:"algorithm"`
	// Assignment[i] is the index into Servers for Clients[i].
	Assignment []int `json:"assignment"`
	// D is the maximum interaction-path length = minimum feasible δ (ms).
	D float64 `json:"d"`
	// LowerBound and Normalized are present when requested.
	LowerBound float64 `json:"lowerBound,omitempty"`
	Normalized float64 `json:"normalized,omitempty"`
	// Loads[k] is the number of clients on Servers[k].
	Loads []int `json:"loads"`
	// ServerAhead are the Δ(s, c) offsets (ms), present when requested.
	ServerAhead []float64 `json:"serverAhead,omitempty"`
	// ElapsedMs is the computation time.
	ElapsedMs float64 `json:"elapsedMs"`
}

// handleAssign serves /v1/assign. Like the other solver handlers, it
// checks its request's context at each phase boundary and returns
// without a word once it is done: RequestTimeout's 503 has then been
// sent, and past the deadline a decode error is only the closed body.
func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ctx := r.Context()
	if ctx.Err() != nil || s.admit(w, r, "/v1/assign") {
		return
	}
	var req AssignRequest
	if err := s.decode(w, r, &req); err != nil {
		if ctx.Err() == nil {
			s.fail(w, r, err)
		}
		return
	}
	if ctx.Err() != nil {
		return
	}
	if s.opts.testHookAssign != nil {
		s.opts.testHookAssign()
	}
	_, csp := obs.Child(ctx, "service.compute")
	resp, err := s.doAssign(ctx, &req)
	if resp != nil {
		csp.SetAttr(obs.Str("algorithm", resp.Algorithm), obs.F64("d", resp.D))
	}
	csp.End()
	if ctx.Err() != nil {
		return
	}
	if err != nil {
		s.fail(w, r, err,
			"nodes", len(req.Matrix),
			"algorithm", req.Algorithm,
			"durationMs", durationMs(time.Since(start)))
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) doAssign(ctx context.Context, req *AssignRequest) (*AssignResponse, error) {
	if len(req.Matrix) == 0 {
		return nil, badRequest("matrix is required")
	}
	if len(req.Matrix) > s.opts.MaxNodes {
		return nil, badRequest("matrix has %d nodes, limit %d", len(req.Matrix), s.opts.MaxNodes)
	}
	m := latency.Matrix(req.Matrix)
	if err := m.Validate(); err != nil {
		return nil, badRequest("invalid matrix: %v", err)
	}
	clients := req.Clients
	if len(clients) == 0 {
		clients = make([]int, m.Len())
		for i := range clients {
			clients[i] = i
		}
	}
	in, err := core.NewInstanceTrusted(m, req.Servers, clients)
	if err != nil {
		return nil, badRequest("invalid instance: %v", err)
	}
	name := req.Algorithm
	if name == "" {
		name = "Distributed-Greedy"
	}
	alg, err := assign.ByNameSeeded(name, seedOrNow(req.Seed))
	if err != nil {
		return nil, badRequest("unknown algorithm %q", name)
	}
	if s.algoTrace != nil {
		// Copy semantics: WithTrace hooks the per-request copy only.
		if traced, ok := assign.WithTrace(alg, s.algoTrace); ok {
			alg = traced
		}
	}
	var caps core.Capacities
	if req.Capacities != nil {
		caps = core.Capacities(req.Capacities)
		if err := in.ValidateCapacities(caps); err != nil {
			return nil, unprocessable("capacities: %v", err)
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	a, err := alg.Assign(in, caps)
	if err != nil {
		return nil, unprocessable("assignment failed: %v", err)
	}
	resp := &AssignResponse{
		Algorithm:  alg.Name(),
		Assignment: a,
		D:          in.MaxInteractionPath(a),
		Loads:      in.Loads(a),
	}
	if req.IncludeLowerBound {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resp.LowerBound = in.LowerBound()
		if resp.LowerBound > 0 {
			resp.Normalized = resp.D / resp.LowerBound
		}
	}
	if req.IncludeOffsets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		off, err := in.ComputeOffsets(a)
		if err != nil {
			return nil, fmt.Errorf("computing offsets: %w", err)
		}
		resp.ServerAhead = off.ServerAhead
	}
	elapsed := time.Since(start)
	resp.ElapsedMs = durationMs(elapsed)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.recordAssignD(alg.Name(), resp.D, elapsed)
	return resp, nil
}

// seedOrNow dereferences an optional request seed, defaulting to a
// time-based seed so unseeded requests stay randomized.
func seedOrNow(s *int64) int64 {
	if s != nil {
		return *s
	}
	return time.Now().UnixNano()
}

// MaxCoordCells bounds the reduced instance a coords request may ask
// for: the reduced solve is the same O(k²·U) machinery /v1/assign runs
// on matrices, so k gets the equivalent of the MaxNodes guard.
const MaxCoordCells = 4096

// AssignCoordsRequest asks for a scaled assignment from network
// coordinates (the Vivaldi height-vector model): clients and servers
// are points plus access heights, latencies are coordinate-predicted,
// and no pairwise matrix is ever materialized. This endpoint bypasses
// the MaxNodes limit — population size is bounded only by the request
// body limit — because the internal/scale pipeline's cost is O(n), not
// O(n²·|S|).
type AssignCoordsRequest struct {
	// Clients are the client coordinates.
	Clients []latency.Coord `json:"clients"`
	// Servers are the server coordinates. Empty with PlaceServers > 0
	// derives that many servers from the client population by greedy
	// K-center.
	Servers []latency.Coord `json:"servers,omitempty"`
	// PlaceServers is the number of servers to derive when Servers is
	// empty.
	PlaceServers int `json:"placeServers,omitempty"`
	// Capacities optionally limits clients per server (aligned with the
	// effective server list).
	Capacities []int `json:"capacities,omitempty"`
	// MaxCells bounds the reduced instance (0 = scale default; limit
	// MaxCoordCells).
	MaxCells int `json:"maxCells,omitempty"`
	// Algorithms names the reduced-instance solvers (default: the
	// weighted Nearest-Server, Longest-First-Batch, Greedy).
	Algorithms []string `json:"algorithms,omitempty"`
	// RandomRestarts adds seeded weighted-random candidates.
	RandomRestarts int `json:"randomRestarts,omitempty"`
	// Seed drives restarts and server placement; omitted means a
	// time-based seed.
	Seed *int64 `json:"seed,omitempty"`
}

// AssignCoordsResponse is the scaled result and its exact D.
type AssignCoordsResponse struct {
	// Assignment[i] is the server index for client i.
	Assignment []int `json:"assignment"`
	// Servers echoes the effective server coordinates (useful with
	// PlaceServers).
	Servers   []latency.Coord `json:"servers"`
	Algorithm string          `json:"algorithm"`
	// Cells is the reduced instance size k.
	Cells int `json:"cells"`
	// DCells is the cell-level D of the winning reduced assignment;
	// ExactD is the exact client-level D of Assignment under the
	// coordinate metric.
	DCells    float64 `json:"dCells"`
	ExactD    float64 `json:"exactD"`
	Loads     []int   `json:"loads"`
	ElapsedMs float64 `json:"elapsedMs"`
}

func (s *Server) handleAssignCoords(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ctx := r.Context()
	if ctx.Err() != nil || s.admit(w, r, "/v1/assign-coords") {
		return
	}
	var req AssignCoordsRequest
	if err := s.decode(w, r, &req); err != nil {
		if ctx.Err() == nil {
			s.fail(w, r, err)
		}
		return
	}
	if ctx.Err() != nil {
		return
	}
	resp, err := s.doAssignCoords(ctx, &req)
	if ctx.Err() != nil {
		return
	}
	if err != nil {
		s.fail(w, r, err,
			"clients", len(req.Clients),
			"servers", len(req.Servers),
			"durationMs", durationMs(time.Since(start)))
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) doAssignCoords(ctx context.Context, req *AssignCoordsRequest) (*AssignCoordsResponse, error) {
	if len(req.Clients) == 0 {
		return nil, badRequest("clients are required")
	}
	if req.MaxCells < 0 || req.MaxCells > MaxCoordCells {
		return nil, badRequest("maxCells %d out of range [0, %d]", req.MaxCells, MaxCoordCells)
	}
	seed := seedOrNow(req.Seed)
	start := time.Now()
	servers := req.Servers
	if len(servers) == 0 {
		if req.PlaceServers <= 0 {
			return nil, badRequest("servers (or placeServers) are required")
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		servers, err = scale.PlaceServers(req.Clients, req.PlaceServers, seed)
		if err != nil {
			return nil, badRequest("placing servers: %v", err)
		}
	} else if req.PlaceServers > 0 {
		return nil, badRequest("servers and placeServers are mutually exclusive")
	}
	var caps core.Capacities
	if req.Capacities != nil {
		if len(req.Capacities) != len(servers) {
			return nil, unprocessable("capacities: %d entries for %d servers", len(req.Capacities), len(servers))
		}
		caps = core.Capacities(req.Capacities)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := scale.AssignCoords(req.Clients, scale.Options{
		Servers:        servers,
		Capacities:     caps,
		MaxCells:       req.MaxCells,
		Algorithms:     req.Algorithms,
		RandomRestarts: req.RandomRestarts,
		Seed:           seed,
		Metrics:        s.opts.Metrics,
	})
	if err != nil {
		return nil, unprocessable("scaled assignment failed: %v", err)
	}
	return &AssignCoordsResponse{
		Assignment: res.Assignment,
		Servers:    servers,
		Algorithm:  res.Algorithm,
		Cells:      res.Cells,
		DCells:     res.DCells,
		ExactD:     res.ExactD,
		Loads:      res.Loads,
		ElapsedMs:  float64(time.Since(start)) / float64(time.Millisecond),
	}, nil
}

// PlacementRequest asks for server placement.
type PlacementRequest struct {
	Matrix [][]float64 `json:"matrix"`
	// K is the number of servers to place.
	K int `json:"k"`
	// Strategy is "random", "k-center-a", or "k-center-b" (default).
	Strategy string `json:"strategy,omitempty"`
	// Seed drives random placement reproducibly; omitted means a
	// time-based seed.
	Seed *int64 `json:"seed,omitempty"`
}

// PlacementResponse is the result.
type PlacementResponse struct {
	Servers []int `json:"servers"`
	// CoverRadius is the K-center objective of the placement (ms).
	CoverRadius float64 `json:"coverRadius"`
	ElapsedMs   float64 `json:"elapsedMs"`
}

func (s *Server) handlePlacement(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	var req PlacementRequest
	if err := s.decode(w, r, &req); err != nil {
		if ctx.Err() == nil {
			s.fail(w, r, err)
		}
		return
	}
	if ctx.Err() != nil {
		return
	}
	if len(req.Matrix) == 0 {
		s.fail(w, r, badRequest("matrix is required"))
		return
	}
	if len(req.Matrix) > s.opts.MaxNodes {
		s.fail(w, r, badRequest("matrix has %d nodes, limit %d", len(req.Matrix), s.opts.MaxNodes), "nodes", len(req.Matrix))
		return
	}
	m := latency.Matrix(req.Matrix)
	if err := m.Validate(); err != nil {
		s.fail(w, r, badRequest("invalid matrix: %v", err), "nodes", len(req.Matrix))
		return
	}
	strategy := placement.Strategy(req.Strategy)
	if req.Strategy == "" {
		strategy = placement.KCenterB
	}
	if ctx.Err() != nil {
		return
	}
	start := time.Now()
	servers, err := placement.Place(strategy, m, req.K, rand.New(rand.NewSource(seedOrNow(req.Seed))))
	if ctx.Err() != nil {
		return
	}
	if err != nil {
		s.fail(w, r, badRequest("placement: %v", err), "nodes", len(req.Matrix), "k", req.K)
		return
	}
	writeJSON(w, http.StatusOK, PlacementResponse{
		Servers:     servers,
		CoverRadius: placement.CoverRadius(m, servers),
		ElapsedMs:   float64(time.Since(start)) / float64(time.Millisecond),
	})
}
