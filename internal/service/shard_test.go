package service

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"diacap/internal/latency"
	"diacap/internal/obs"
	"diacap/internal/shard"
)

// shardServer serves a plane over 4 servers and 40 clients, plane and
// service sharing one metrics registry.
func shardServer(t *testing.T) (*Server, *shard.Plane) {
	t.Helper()
	cs, err := latency.GenerateCoords(latency.DefaultConfig(44), 21)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	p, err := shard.New(shard.Options{Servers: cs[:4], Clients: cs[4:], Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return New(Options{Shard: p, Metrics: reg}), p
}

func TestShardAssignLifecycle(t *testing.T) {
	s, p := shardServer(t)

	rec := postJSON(t, s, "/v1/shard/assign", ShardAssignRequest{Op: "join", Client: 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("join: status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[ShardAssignResponse](t, rec)
	if resp.Epoch != 2 || resp.Server < 0 {
		t.Fatalf("join response: %+v", resp)
	}
	if got := rec.Header().Get(epochHeader); got != "2" {
		t.Fatalf("join %s header = %q", epochHeader, got)
	}
	if math.Float64bits(resp.CertifiedD) != math.Float64bits(resp.D) {
		t.Fatalf("certifiedD %v, want d %v", resp.CertifiedD, resp.D)
	}

	// Double join conflicts without burning an epoch.
	rec = postJSON(t, s, "/v1/shard/assign", ShardAssignRequest{Op: "join", Client: 3})
	if rec.Code != http.StatusConflict {
		t.Fatalf("double join: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(epochHeader); got != "2" {
		t.Fatalf("conflict %s header = %q", epochHeader, got)
	}

	rec = postJSON(t, s, "/v1/shard/assign", ShardAssignRequest{Op: "migrate", Client: 3, Server: ptr(1)})
	if rec.Code != http.StatusOK {
		t.Fatalf("migrate: status %d: %s", rec.Code, rec.Body.String())
	}
	if resp = decodeBody[ShardAssignResponse](t, rec); resp.Server != 1 {
		t.Fatalf("migrate landed on server %d, want 1", resp.Server)
	}

	rec = postJSON(t, s, "/v1/shard/assign", ShardAssignRequest{Op: "leave", Client: 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("leave: status %d: %s", rec.Code, rec.Body.String())
	}
	if resp = decodeBody[ShardAssignResponse](t, rec); resp.Server != 1 {
		t.Fatalf("leave vacated server = %d, want 1", resp.Server)
	}

	if p.Current().Active != 0 {
		t.Fatalf("plane still has %d active clients", p.Current().Active)
	}
}

func TestShardAssignErrors(t *testing.T) {
	s, p := shardServer(t)
	cases := []struct {
		name string
		req  ShardAssignRequest
		want int
	}{
		{"unknown op", ShardAssignRequest{Op: "reassign", Client: 0}, http.StatusBadRequest},
		{"unknown client", ShardAssignRequest{Op: "join", Client: 9999}, http.StatusBadRequest},
		{"leave inactive", ShardAssignRequest{Op: "leave", Client: 0}, http.StatusConflict},
		{"migrate inactive", ShardAssignRequest{Op: "migrate", Client: 0, Server: ptr(0)}, http.StatusConflict},
	}
	for _, tc := range cases {
		if rec := postJSON(t, s, "/v1/shard/assign", tc.req); rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
	}
	// Migration onto a dead server is a state conflict.
	if _, err := p.Join(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.KillServer(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	rec := postJSON(t, s, "/v1/shard/assign", ShardAssignRequest{Op: "migrate", Client: 0, Server: ptr(2)})
	if rec.Code != http.StatusConflict {
		t.Fatalf("migrate to dead server: status %d: %s", rec.Code, rec.Body.String())
	}
	// A target past the last server is bad input that the plane refuses
	// and counts; a negative one other than -1 never reaches the plane.
	for _, target := range []int{4, -7} {
		rec := postJSON(t, s, "/v1/shard/assign", ShardAssignRequest{Op: "migrate", Client: 0, Server: ptr(target)})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("migrate to server %d: status %d: %s", target, rec.Code, rec.Body.String())
		}
	}
	rec = get(t, s, "/metrics")
	if body := rec.Body.String(); !strings.Contains(body, `diacap_shard_rejected_total{reason="unknown_server"} 1`+"\n") {
		t.Fatalf("/metrics does not count one unknown_server rejection:\n%s", body)
	}
}

func TestShardSnapshotConditionalRead(t *testing.T) {
	s, p := shardServer(t)
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	rec := get("/v1/shard/snapshot")
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot: status %d: %s", rec.Code, rec.Body.String())
	}
	snap := decodeBody[ShardSnapshotResponse](t, rec)
	if snap.Epoch != 1 || snap.Active != 0 || len(snap.Assignment) != p.NumClients() {
		t.Fatalf("initial snapshot: %+v", snap)
	}

	if _, err := p.Join(context.Background(), 7); err != nil {
		t.Fatal(err)
	}

	// The retired epoch is rejected with the live epoch in the header.
	rec = get("/v1/shard/snapshot?epoch=1")
	if rec.Code != http.StatusConflict {
		t.Fatalf("stale read: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(epochHeader); got != "2" {
		t.Fatalf("stale read %s header = %q", epochHeader, got)
	}

	rec = get("/v1/shard/snapshot?epoch=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("conditional read of live epoch: status %d", rec.Code)
	}
	if snap = decodeBody[ShardSnapshotResponse](t, rec); snap.Active != 1 {
		t.Fatalf("snapshot after join: %+v", snap)
	}

	if rec = get("/v1/shard/snapshot?epoch=bogus"); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed epoch: status %d", rec.Code)
	}
	rec = postJSON(t, s, "/v1/shard/snapshot", struct{}{})
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST snapshot: status %d", rec.Code)
	}
}

// TestShardEndpointsAbsentWithoutPlane pins that the shard routes only
// exist when a plane is configured.
func TestShardEndpointsAbsentWithoutPlane(t *testing.T) {
	s := testServer()
	for _, path := range []string{"/v1/shard/assign", "/v1/shard/snapshot"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s without a plane: status %d, want 404", path, rec.Code)
		}
	}
}

func TestShardEndpointNormalization(t *testing.T) {
	for _, path := range []string{"/v1/shard/assign", "/v1/shard/snapshot"} {
		if got := normalizeEndpoint(path); got != path {
			t.Errorf("normalizeEndpoint(%q) = %q", path, got)
		}
	}
	if got := normalizeEndpoint("/v1/shard/bogus"); got != "other" {
		t.Errorf("unknown shard path normalized to %q", got)
	}
}
