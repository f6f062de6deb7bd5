package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"diacap/internal/live"
	"diacap/internal/obs"
)

type stubLive struct {
	servers int
	dead    []int
}

func (s stubLive) NumServers() int    { return s.servers }
func (s stubLive) DeadServers() []int { return s.dead }
func (s stubLive) HealthSnapshot() live.HealthSnapshot {
	return live.HealthSnapshot{Servers: s.servers, DeadServers: len(s.dead)}
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestMetricsEndpointServesSchemaBeforeTraffic(t *testing.T) {
	reg := obs.NewRegistry()
	PreregisterMetrics(reg)
	s := New(Options{MaxNodes: 256, Metrics: reg})

	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	// The full schema is visible on the very first scrape: request
	// counters and latency histograms per endpoint, and the paper's
	// assignment-D gauge per algorithm.
	for _, want := range []string{
		`diacap_http_requests_total{code="200",endpoint="/v1/assign"}`,
		`diacap_http_request_seconds_bucket{endpoint="/v1/assign",le="+Inf"}`,
		`diacap_http_inflight_requests`,
		`diacap_assign_d_ms{algorithm="Greedy"}`,
		`diacap_assign_d_ms{algorithm="Distributed-Greedy"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("first scrape missing %q", want)
		}
	}
}

func TestInstrumentCountsRequests(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{MaxNodes: 256, Metrics: reg})

	get(t, s, "/healthz")
	get(t, s, "/healthz")
	get(t, s, "/no/such/path")
	postJSON(t, s, "/v1/assign", map[string]any{"matrix": [][]float64{{0}}})

	if got := reg.Counter(nHTTPRequests, "", obs.L("endpoint", "/healthz"), obs.L("code", "200")).Value(); got != 2 {
		t.Errorf("healthz 200 count = %d, want 2", got)
	}
	// Unknown paths fold into "other" so scrape cardinality stays bounded.
	if got := reg.Counter(nHTTPRequests, "", obs.L("endpoint", "other"), obs.L("code", "404")).Value(); got != 1 {
		t.Errorf("other 404 count = %d, want 1", got)
	}
	// A bad assign request (1-node matrix, no servers) is a client error:
	// counted both per-code and in the errors family.
	if got := reg.Counter(nHTTPErrors, "", obs.L("endpoint", "/v1/assign")).Value(); got != 1 {
		t.Errorf("assign errors = %d, want 1", got)
	}
	if h := reg.Histogram(nHTTPSeconds, "", obs.SecondsBuckets, obs.L("endpoint", "/healthz")); h.Count() != 2 {
		t.Errorf("healthz latency observations = %d, want 2", h.Count())
	}
	if v := reg.Gauge(nHTTPInflight, "").Value(); v != 0 {
		t.Errorf("inflight after quiesce = %g, want 0", v)
	}
}

func TestAssignRecordsDGauge(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{MaxNodes: 256, Metrics: reg})
	rec := postJSON(t, s, "/v1/assign", map[string]any{
		"matrix":    smallMatrix(t),
		"servers":   []int{0, 1, 2},
		"algorithm": "Greedy",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("assign status = %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[map[string]any](t, rec)
	wantD, ok := resp["d"].(float64)
	if !ok || wantD <= 0 {
		t.Fatalf("response d = %v", resp["d"])
	}
	if got := reg.Gauge(nAssignD, "", obs.L("algorithm", "Greedy")).Value(); got != wantD {
		t.Errorf("assign-D gauge = %g, response D = %g", got, wantD)
	}
	if h := reg.Histogram(nAssignSec, "", obs.SecondsBuckets, obs.L("algorithm", "Greedy")); h.Count() != 1 {
		t.Errorf("assign-seconds observations = %d, want 1", h.Count())
	}
	// The traced run also feeds the algorithm-progress metrics.
	if got := reg.Counter("diacap_algo_steps_total", "",
		obs.L("algorithm", "Greedy"), obs.L("kind", obs.KindBatch)).Value(); got == 0 {
		t.Error("no algo batch steps recorded through the service trace hook")
	}
}

func TestHealthzReportsLiveCluster(t *testing.T) {
	s := New(Options{MaxNodes: 256, Live: stubLive{servers: 4, dead: []int{2}}})
	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := decodeBody[map[string]any](t, rec)
	if body["status"] != "degraded" {
		t.Errorf("status = %v, want degraded with a dead server", body["status"])
	}
	if body["version"] == "" {
		t.Error("healthz missing version")
	}
	liveSec, ok := body["live"].(map[string]any)
	if !ok {
		t.Fatalf("healthz live section = %v", body["live"])
	}
	if liveSec["servers"] != float64(4) || liveSec["deadServers"] != float64(1) {
		t.Errorf("live section = %v", liveSec)
	}

	// Healthy cluster: plain ok.
	s2 := New(Options{MaxNodes: 256, Live: stubLive{servers: 4}})
	if b := decodeBody[map[string]any](t, get(t, s2, "/healthz")); b["status"] != "ok" {
		t.Errorf("healthy status = %v", b["status"])
	}
}

func TestPprofGating(t *testing.T) {
	// Off by default even with metrics on.
	s := New(Options{MaxNodes: 256, Metrics: obs.NewRegistry()})
	if rec := get(t, s, "/debug/pprof/cmdline"); rec.Code != http.StatusNotFound {
		t.Errorf("pprof without opt-in: status = %d, want 404", rec.Code)
	}
	on := New(Options{MaxNodes: 256, Metrics: obs.NewRegistry(), EnablePprof: true})
	if rec := get(t, on, "/debug/pprof/cmdline"); rec.Code != http.StatusOK {
		t.Errorf("pprof with opt-in: status = %d, want 200", rec.Code)
	}
}

func TestNoMetricsNoDebugEndpoints(t *testing.T) {
	s := New(Options{MaxNodes: 256})
	for _, path := range []string{"/metrics", "/debug/vars"} {
		if rec := get(t, s, path); rec.Code != http.StatusNotFound {
			t.Errorf("%s without a registry: status = %d, want 404", path, rec.Code)
		}
	}
}

func TestErrorPathsLogRequestContext(t *testing.T) {
	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, "warn")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{MaxNodes: 256, Logger: logger})
	rec := postJSON(t, s, "/v1/assign", map[string]any{
		"matrix":    smallMatrix(t),
		"servers":   []int{0},
		"algorithm": "no-such-algorithm",
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	out := buf.String()
	for _, want := range []string{
		"request failed",
		"endpoint=/v1/assign",
		"status=400",
		"nodes=20",
		"algorithm=no-such-algorithm",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("error log missing %q:\n%s", want, out)
		}
	}
}

func TestNormalizeEndpoint(t *testing.T) {
	cases := map[string]string{
		"/healthz":             "/healthz",
		"/v1/assign":           "/v1/assign",
		"/debug/pprof/profile": "/debug/pprof",
		"/v1/assign/extra":     "other",
		"/":                    "other",
	}
	for path, want := range cases {
		if got := normalizeEndpoint(path); got != want {
			t.Errorf("normalizeEndpoint(%q) = %q, want %q", path, got, want)
		}
	}
}
