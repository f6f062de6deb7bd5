package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"diacap/internal/core"
	"diacap/internal/dynamic"
	"diacap/internal/latency"
	"diacap/internal/obs"
	"diacap/internal/shard"
)

// panicServer is the service as New builds it, with a metrics registry,
// a flight recorder, and one extra route that panics with v.
func panicServer(v any) (*Server, *obs.Registry, *obs.Recorder) {
	reg := obs.NewRegistry()
	fl := obs.NewRecorder(0)
	s := New(Options{MaxNodes: 256, Metrics: reg, Flight: fl})
	s.mux.HandleFunc("/panic", func(http.ResponseWriter, *http.Request) { panic(v) })
	return s, reg, fl
}

func TestRecoverMiddlewareTurnsPanicInto500JSON(t *testing.T) {
	s, _, _ := panicServer("boom")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/panic", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("panic response is not JSON: %q", rec.Body.String())
	}
	if body["error"] == "" {
		t.Fatalf("panic response has no error field: %v", body)
	}
	if strings.Contains(body["error"], "boom") {
		t.Fatalf("panic value leaked to the client: %v", body)
	}
}

func TestRecoverMiddlewarePropagatesAbortHandler(t *testing.T) {
	// http.ErrAbortHandler is the stdlib's sanctioned way to abort a
	// response; swallowing it would change its meaning. The aborted
	// request is still accounted for: nothing was written, so it counts
	// as a 500 error, never as a 200, and it is journaled.
	s, reg, fl := panicServer(http.ErrAbortHandler)
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Fatal("ErrAbortHandler must propagate")
		}
		count := func(code string) uint64 {
			return reg.Counter(nHTTPRequests, "", obs.L("endpoint", "other"), obs.L("code", code)).Value()
		}
		if got := count("200"); got != 0 {
			t.Errorf(`code="200" count = %d, want 0`, got)
		}
		if got := count("500"); got != 1 {
			t.Errorf(`code="500" count = %d, want 1`, got)
		}
		if got := reg.Counter(nHTTPErrors, "", obs.L("endpoint", "other")).Value(); got != 1 {
			t.Errorf("errors_total = %d, want 1", got)
		}
		if got := len(fl.Journal(JournalRequests, 0).Snapshot()); got != 1 {
			t.Errorf("requests journal has %d entries, want 1", got)
		}
	}()
	s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/panic", nil))
	t.Fatal("unreachable")
}

func TestRequestTimeoutAnswers503JSON(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(5 * time.Second):
		case <-r.Context().Done():
		}
	})
	h := timeoutJSON(slow, 20*time.Millisecond)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/assign", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("timeout response is not JSON: %q", rec.Body.String())
	}
	if body["error"] == "" {
		t.Fatalf("timeout response has no error field: %v", body)
	}
}

// TestRequestTimeoutStopsAbandonedSolve: once RequestTimeout's 503 has
// been sent, the abandoned /v1/assign handler stops at its next phase
// boundary, so the solve nobody waits for runs no further and records
// no diacap_assign_seconds sample.
func TestRequestTimeoutStopsAbandonedSolve(t *testing.T) {
	reg := obs.NewRegistry()
	release := make(chan struct{})
	s := New(Options{
		MaxNodes:       256,
		RequestTimeout: 30 * time.Millisecond,
		Metrics:        reg,
		testHookAssign: func() { <-release },
	})
	// New's wiring of /v1/assign, with the handler's end observable.
	done := make(chan struct{})
	h := timeoutJSON(func(w http.ResponseWriter, r *http.Request) {
		defer close(done)
		s.handleAssign(w, r)
	}, s.opts.RequestTimeout)
	body, err := json.Marshal(AssignRequest{
		Matrix: smallMatrix(t), Servers: []int{0, 1}, Algorithm: "Greedy", Seed: ptr[int64](1),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/assign", strings.NewReader(string(body))))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	close(release) // the hook returns past the deadline
	<-done
	if n := reg.Histogram(nAssignSec, "", obs.SecondsBuckets, obs.L("algorithm", "Greedy")).Count(); n != 0 {
		t.Fatalf("abandoned solve recorded %d diacap_assign_seconds samples, want 0", n)
	}
}

func TestRequestTimeoutFastPathUnaffected(t *testing.T) {
	s := New(Options{MaxNodes: 256, RequestTimeout: 2 * time.Second})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz under timeout middleware: %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["status"] != "ok" {
		t.Fatalf("healthz body %q", rec.Body.String())
	}
}

func TestServerPanicRouteRecovered(t *testing.T) {
	// End to end through New: a handler that panics yields 500 JSON, and
	// the server keeps answering afterwards.
	s := New(Options{MaxNodes: 256})
	s.mux.HandleFunc("/panic", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/panic", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("server unhealthy after recovered panic: %d", rec.Code)
	}
}

// oneShardServer fronts a one-shard plane, built with strategy (nil =
// the plane's default), with a service under RequestTimeout d.
func oneShardServer(t *testing.T, d time.Duration, strategy dynamic.Strategy) (*Server, *shard.Plane) {
	t.Helper()
	cs, err := latency.GenerateCoords(latency.DefaultConfig(44), 21)
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.New(shard.Options{Shards: 1, Servers: cs[:4], Clients: cs[4:], Strategy: strategy})
	if err != nil {
		t.Fatal(err)
	}
	return New(Options{Shard: p, RequestTimeout: d}), p
}

// TestRequestTimeoutScope pins which routes carry the deadline: the
// solver routes answer 503 JSON once it expires, while a plane write
// and a serving read run inline and answer what they computed.
func TestRequestTimeoutScope(t *testing.T) {
	s, _ := oneShardServer(t, time.Nanosecond, nil)

	rec := postJSON(t, s, "/v1/assign", AssignRequest{
		Matrix: smallMatrix(t), Servers: []int{0, 1}, Algorithm: "Greedy", Seed: ptr[int64](1),
	})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/v1/assign: status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/v1/assign: Content-Type = %q, want application/json", ct)
	}
	if body := decodeBody[map[string]string](t, rec); body["error"] == "" {
		t.Fatalf("/v1/assign: timeout response has no error field: %v", body)
	}

	rec = postJSON(t, s, "/v1/shard/assign", ShardAssignRequest{Op: "join", Client: 0})
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/shard/assign: status %d, want 200: %s", rec.Code, rec.Body.String())
	}
	if resp := decodeBody[ShardAssignResponse](t, rec); resp.Epoch != 2 {
		t.Fatalf("/v1/shard/assign: epoch %d, want 2", resp.Epoch)
	}

	rec = postJSON(t, s, "/v1/assign-one", AssignOneRequest{Coord: []float64{25, 35}})
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/assign-one: status %d, want 200: %s", rec.Code, rec.Body.String())
	}
}

// parkedRepair is a plane strategy whose Repair parks, holding the
// plane lock Repair took, until release is closed.
type parkedRepair struct {
	dynamic.Strategy
	entered, release chan struct{}
}

func (p *parkedRepair) Repair(*core.Evaluator, core.Capacities, float64) int {
	close(p.entered)
	<-p.release
	return 0
}

// TestShardWriteNotReportedTimedOut: a join that waits on the plane lock
// longer than RequestTimeout still commits, so its answer must be the
// epoch it published, never a 503 for a write that happened.
func TestShardWriteNotReportedTimedOut(t *testing.T) {
	parked := &parkedRepair{Strategy: dynamic.NewGreedyJoin(nil), entered: make(chan struct{}), release: make(chan struct{})}
	s, p := oneShardServer(t, 50*time.Millisecond, parked)
	repaired := make(chan struct{})
	go func() {
		p.Repair(context.Background(), 0)
		close(repaired)
	}()
	<-parked.entered
	time.AfterFunc(200*time.Millisecond, func() { close(parked.release) })

	rec := postJSON(t, s, "/v1/shard/assign", ShardAssignRequest{Op: "join", Client: 7})
	<-repaired
	if rec.Code != http.StatusOK {
		t.Fatalf("join behind a held plane lock: status %d, want 200: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[ShardAssignResponse](t, rec)
	snap := p.Current()
	if resp.Epoch != 2 || snap.Epoch != resp.Epoch {
		t.Fatalf("response epoch %d, published epoch %d, want both 2", resp.Epoch, snap.Epoch)
	}
	if got := snap.Assignment[7]; got != resp.Server {
		t.Fatalf("client 7 is on server %d, response names %d", got, resp.Server)
	}
}

// TestDecodeLeavesRequestBody: serving one reused *http.Request twice
// must leave its Body the caller's reader; a decode that replaced it
// would stack one more MaxBytesReader per call.
func TestDecodeLeavesRequestBody(t *testing.T) {
	s, _ := shardServer(t)
	rb := &replayBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/shard/assign", rb)
	for _, body := range []string{`{"op":"join","client":4}`, `{"op":"leave","client":4}`} {
		rb.data, rb.off = []byte(body), 0
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body.String())
		}
	}
	if req.Body != io.ReadCloser(rb) {
		t.Fatalf("request body is now %T, want the caller's reader", req.Body)
	}
}
