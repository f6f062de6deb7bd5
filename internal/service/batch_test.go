package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"diacap/internal/latency"
	"diacap/internal/live"
	"diacap/internal/shard"
)

// resolveServer builds a service over a joined plane: 4 servers, 40
// clients, the first 10 joined.
func resolveServer(t testing.TB, opts Options) (*Server, *shard.Plane) {
	t.Helper()
	cs, err := latency.GenerateCoords(latency.DefaultConfig(44), 21)
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.New(shard.Options{Servers: cs[:4], Clients: cs[4:]})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 10; c++ {
		if _, err := p.Join(context.Background(), c); err != nil {
			t.Fatal(err)
		}
	}
	opts.Shard = p
	return New(opts), p
}

// postRaw posts a raw body, bypassing the JSON marshalling helpers so
// malformed bodies reach the codec untouched.
func postRaw(t testing.TB, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestAssignBatchResolvesAgainstSnapshot(t *testing.T) {
	s, p := resolveServer(t, Options{})
	// Mixed arities: [x,y], [x,y,z], [x,y,z,h].
	body := `{"coords":[[10,20],[30,40,5],[60,10,0,2.5]]}`
	rec := postRaw(t, s, "/v1/assign-batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	resp := decodeBody[AssignBatchResponse](t, rec)
	snap := p.Current()
	if resp.Epoch != snap.Epoch || resp.D != snap.D || resp.CertifiedD != snap.CertifiedD {
		t.Fatalf("snapshot echo: %+v, snapshot epoch %d d %v certifiedD %v",
			resp, snap.Epoch, snap.D, snap.CertifiedD)
	}
	if len(resp.Servers) != 3 || len(resp.LatencyMs) != 3 {
		t.Fatalf("result lengths: %+v", resp)
	}
	coords := []latency.Coord{
		{X: 10, Y: 20}, {X: 30, Y: 40, Z: 5}, {X: 60, Y: 10, H: 2.5},
	}
	v := p.View()
	for i, q := range coords {
		best, bestD := -1, math.Inf(1)
		for k := 0; k < v.NumServers(); k++ {
			if !v.Admissible(k) {
				continue
			}
			if d := q.LatencyTo(v.ServerCoord(k)); d < bestD {
				best, bestD = k, d
			}
		}
		if resp.Servers[i] != best || resp.LatencyMs[i] != bestD {
			t.Fatalf("coord %d: got (%d, %v), want (%d, %v)",
				i, resp.Servers[i], resp.LatencyMs[i], best, bestD)
		}
	}
}

func TestAssignOneMatchesBatchEntry(t *testing.T) {
	s, _ := resolveServer(t, Options{})
	batch := decodeBody[AssignBatchResponse](t,
		postRaw(t, s, "/v1/assign-batch", `{"coords":[[25,35,1,0.5]]}`))
	rec := postRaw(t, s, "/v1/assign-one", `{"coord":[25,35,1,0.5]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("unary: status %d: %s", rec.Code, rec.Body.String())
	}
	one := decodeBody[AssignOneResponse](t, rec)
	if one.Server != batch.Servers[0] || one.LatencyMs != batch.LatencyMs[0] ||
		one.Epoch != batch.Epoch || one.D != batch.D || one.CertifiedD != batch.CertifiedD {
		t.Fatalf("unary %+v != batch %+v", one, batch)
	}
}

func TestAssignBatchEpochPinning(t *testing.T) {
	s, p := resolveServer(t, Options{})
	epoch := p.Epoch()
	rec := postRaw(t, s, "/v1/assign-batch",
		fmt.Sprintf(`{"coords":[[1,2]],"epoch":%d}`, epoch))
	if rec.Code != http.StatusOK {
		t.Fatalf("pinned current epoch: status %d: %s", rec.Code, rec.Body.String())
	}
	if _, err := p.Join(context.Background(), 30); err != nil {
		t.Fatal(err)
	}
	rec = postRaw(t, s, "/v1/assign-batch",
		fmt.Sprintf(`{"coords":[[1,2]],"epoch":%d}`, epoch))
	if rec.Code != http.StatusConflict {
		t.Fatalf("retired epoch: status %d: %s", rec.Code, rec.Body.String())
	}
	if got, want := rec.Header().Get(epochHeader), fmt.Sprint(p.Epoch()); got != want {
		t.Fatalf("stale %s header = %q, want %q", epochHeader, got, want)
	}
}

// TestResolveStatusMapping pins the typed-error contract of the serving
// codec: syntax 400, oversize 413, semantic violations 422, shed 429.
func TestResolveStatusMapping(t *testing.T) {
	s, _ := resolveServer(t, Options{MaxBatchClients: 4, MaxBodyBytes: 256})
	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"malformed JSON", "/v1/assign-batch", `{`, http.StatusBadRequest},
		{"not an object", "/v1/assign-batch", `[]`, http.StatusBadRequest},
		{"unknown key", "/v1/assign-batch", `{"clients":[[1,2]]}`, http.StatusBadRequest},
		{"unary key on batch", "/v1/assign-batch", `{"coord":[1,2]}`, http.StatusBadRequest},
		{"batch key on unary", "/v1/assign-one", `{"coords":[[1,2]]}`, http.StatusBadRequest},
		{"empty object", "/v1/assign-batch", `{}`, http.StatusBadRequest},
		{"empty coords", "/v1/assign-batch", `{"coords":[]}`, http.StatusBadRequest},
		{"trailing data", "/v1/assign-batch", `{"coords":[[1,2]]}x`, http.StatusBadRequest},
		{"duplicate coords", "/v1/assign-batch", `{"coords":[[1,2]],"coords":[[3,4]]}`, http.StatusBadRequest},
		{"NaN coordinate", "/v1/assign-batch", `{"coords":[[NaN,1]]}`, http.StatusBadRequest},
		{"negative epoch", "/v1/assign-batch", `{"coords":[[1,2]],"epoch":-1}`, http.StatusBadRequest},
		{"arity 1", "/v1/assign-batch", `{"coords":[[1]]}`, http.StatusUnprocessableEntity},
		{"arity 5", "/v1/assign-batch", `{"coords":[[1,2,3,4,5]]}`, http.StatusUnprocessableEntity},
		{"negative height", "/v1/assign-batch", `{"coords":[[1,2,3,-1]]}`, http.StatusUnprocessableEntity},
		{"float overflow", "/v1/assign-batch", `{"coords":[[1e999,0]]}`, http.StatusUnprocessableEntity},
		{"batch too large", "/v1/assign-batch", `{"coords":[[1,2],[1,2],[1,2],[1,2],[1,2]]}`, http.StatusRequestEntityTooLarge},
		{"body too large", "/v1/assign-batch", `{"coords":[[` + strings.Repeat("1", 300) + `,2]]}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		rec := postRaw(t, s, tc.path, tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not a JSON error", tc.name, rec.Body.String())
		}
	}
	// Method mapping rides the same handler.
	req := httptest.NewRequest(http.MethodGet, "/v1/assign-batch", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", rec.Code)
	}
}

// TestResolveShedsWholeBatch pins the 429 leg: a shedding admission
// controller rejects the batch before any computation, with Retry-After
// and no partial body.
func TestResolveShedsWholeBatch(t *testing.T) {
	sick := live.HealthSnapshot{
		Servers: 4, DeadServers: 4, Clients: 10,
		Failovers: 100, ReconnectAttempts: 10000,
		Deliveries: 100, LagSpreadSum: 100 * 1000,
	}
	quiet := live.HealthSnapshot{Servers: 4, Clients: 10}
	s, _ := resolveServer(t, Options{Live: &stubHealth{snaps: []live.HealthSnapshot{quiet, sick}}})
	s.admission.window = time.Nanosecond
	// Two requests: the first scores the quiet base, the second diffs
	// the churn storm against it and sheds.
	postRaw(t, s, "/v1/assign-batch", `{"coords":[[1,2]]}`)
	rec := postRaw(t, s, "/v1/assign-batch", `{"coords":[[1,2],[3,4]]}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("shed: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if bytes.Contains(rec.Body.Bytes(), []byte("servers")) {
		t.Fatalf("shed response leaked a partial assignment: %s", rec.Body.String())
	}
}

// TestAssignBatchDifferential pins bit-identity between one batch call
// and N sequential unary calls against the same pinned epoch, across
// GOMAXPROCS settings.
func TestAssignBatchDifferential(t *testing.T) {
	cs, err := latency.GenerateCoords(latency.DefaultConfig(64), 7)
	if err != nil {
		t.Fatal(err)
	}
	queries := cs[44:]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		s, p := resolveServer(t, Options{})
		epoch := p.Epoch()
		var batchReq AssignBatchRequest
		batchReq.Epoch = &epoch
		for _, q := range queries {
			batchReq.Coords = append(batchReq.Coords, []float64{q.X, q.Y, q.Z, q.H})
		}
		rec := postJSON(t, s, "/v1/assign-batch", batchReq)
		if rec.Code != http.StatusOK {
			t.Fatalf("procs %d: batch status %d: %s", procs, rec.Code, rec.Body.String())
		}
		batch := decodeBody[AssignBatchResponse](t, rec)
		for i, q := range queries {
			rec := postJSON(t, s, "/v1/assign-one", AssignOneRequest{
				Coord: []float64{q.X, q.Y, q.Z, q.H}, Epoch: &epoch,
			})
			if rec.Code != http.StatusOK {
				t.Fatalf("procs %d: unary %d status %d: %s", procs, i, rec.Code, rec.Body.String())
			}
			one := decodeBody[AssignOneResponse](t, rec)
			if one.Server != batch.Servers[i] || one.LatencyMs != batch.LatencyMs[i] ||
				one.Epoch != batch.Epoch || one.D != batch.D || one.CertifiedD != batch.CertifiedD {
				t.Fatalf("procs %d: query %d: unary %+v != batch entry (%d, %v) under epoch %d d %v",
					procs, i, one, batch.Servers[i], batch.LatencyMs[i], batch.Epoch, batch.D)
			}
		}
	}
}

// TestResolveEndpointsAbsentWithoutPlane pins that the serving routes
// only exist when a shard plane is configured.
func TestResolveEndpointsAbsentWithoutPlane(t *testing.T) {
	s := testServer()
	for _, path := range []string{"/v1/assign-one", "/v1/assign-batch"} {
		rec := postRaw(t, s, path, `{"coords":[[1,2]]}`)
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s without a plane: status %d, want 404", path, rec.Code)
		}
	}
}
