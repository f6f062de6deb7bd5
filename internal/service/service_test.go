package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"diacap/internal/core"
	"diacap/internal/latency"
)

func testServer() *Server { return New(Options{MaxNodes: 256}) }

func ptr[T any](v T) *T { return &v }

func postJSON(t *testing.T, s *Server, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func decodeBody[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
	return v
}

func smallMatrix(t *testing.T) [][]float64 {
	t.Helper()
	return [][]float64(latency.ScaledLike(20, 1))
}

func TestHealthz(t *testing.T) {
	s := testServer()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("body = %s", rec.Body.String())
	}
}

func TestAlgorithmsList(t *testing.T) {
	s := testServer()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/algorithms", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Algorithms []AlgorithmInfo `json:"algorithms"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Algorithms) != 4 {
		t.Fatalf("algorithms = %v", out.Algorithms)
	}
	// POST is not allowed.
	rec2 := postJSON(t, s, "/v1/algorithms", map[string]any{})
	if rec2.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d", rec2.Code)
	}
}

func TestAssignHappyPath(t *testing.T) {
	s := testServer()
	rec := postJSON(t, s, "/v1/assign", AssignRequest{
		Matrix:            smallMatrix(t),
		Servers:           []int{0, 1, 2},
		Algorithm:         "Greedy",
		IncludeOffsets:    true,
		IncludeLowerBound: true,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[AssignResponse](t, rec)
	if resp.Algorithm != "Greedy" {
		t.Fatalf("algorithm = %q", resp.Algorithm)
	}
	if len(resp.Assignment) != 20 { // default: a client at every node
		t.Fatalf("assignment length = %d", len(resp.Assignment))
	}
	if resp.D <= 0 || resp.LowerBound <= 0 || resp.Normalized < 1 {
		t.Fatalf("metrics: %+v", resp)
	}
	if len(resp.ServerAhead) != 3 {
		t.Fatalf("offsets = %v", resp.ServerAhead)
	}
	if len(resp.Loads) != 3 {
		t.Fatalf("loads = %v", resp.Loads)
	}
	total := 0
	for _, l := range resp.Loads {
		total += l
	}
	if total != 20 {
		t.Fatalf("loads sum to %d", total)
	}

	// The response must reproduce what the library computes directly.
	m := latency.Matrix(smallMatrix(t))
	clients := make([]int, 20)
	for i := range clients {
		clients[i] = i
	}
	in, err := core.NewInstanceTrusted(m, []int{0, 1, 2}, clients)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.MaxInteractionPath(core.Assignment(resp.Assignment)); got != resp.D {
		t.Fatalf("service D %v != library D %v", resp.D, got)
	}
}

func TestAssignDefaults(t *testing.T) {
	s := testServer()
	rec := postJSON(t, s, "/v1/assign", AssignRequest{
		Matrix:  smallMatrix(t),
		Servers: []int{3, 7},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[AssignResponse](t, rec)
	if resp.Algorithm != "Distributed-Greedy" {
		t.Fatalf("default algorithm = %q", resp.Algorithm)
	}
	if resp.LowerBound != 0 || resp.ServerAhead != nil {
		t.Fatal("optional fields should be omitted unless requested")
	}
}

func TestAssignExplicitClients(t *testing.T) {
	s := testServer()
	rec := postJSON(t, s, "/v1/assign", AssignRequest{
		Matrix:  smallMatrix(t),
		Servers: []int{0, 1},
		Clients: []int{5, 6, 7},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[AssignResponse](t, rec)
	if len(resp.Assignment) != 3 {
		t.Fatalf("assignment length = %d", len(resp.Assignment))
	}
}

func TestAssignCapacitated(t *testing.T) {
	s := testServer()
	rec := postJSON(t, s, "/v1/assign", AssignRequest{
		Matrix:     smallMatrix(t),
		Servers:    []int{0, 1, 2, 3},
		Algorithm:  "Nearest-Server",
		Capacities: []int{5, 5, 5, 5},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[AssignResponse](t, rec)
	for k, l := range resp.Loads {
		if l > 5 {
			t.Fatalf("server %d overloaded: %d", k, l)
		}
	}
	// Infeasible capacities → 422.
	rec = postJSON(t, s, "/v1/assign", AssignRequest{
		Matrix:     smallMatrix(t),
		Servers:    []int{0, 1},
		Capacities: []int{5, 5},
	})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible status = %d: %s", rec.Code, rec.Body.String())
	}
}

func TestAssignErrors(t *testing.T) {
	s := testServer()
	asym := smallMatrix(t)
	asym[0][1] += 5
	cases := []struct {
		name string
		req  any
		want int
	}{
		{"empty body", map[string]any{}, http.StatusBadRequest},
		{"no servers", AssignRequest{Matrix: smallMatrix(t)}, http.StatusBadRequest},
		{"bad matrix", AssignRequest{Matrix: asym, Servers: []int{0}}, http.StatusBadRequest},
		{"unknown algorithm", AssignRequest{Matrix: smallMatrix(t), Servers: []int{0}, Algorithm: "Magic"}, http.StatusBadRequest},
		{"server out of range", AssignRequest{Matrix: smallMatrix(t), Servers: []int{99}}, http.StatusBadRequest},
		{"unknown field", map[string]any{"matrix": smallMatrix(t), "servers": []int{0}, "wat": 1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postJSON(t, s, "/v1/assign", tc.req)
			if rec.Code != tc.want {
				t.Fatalf("status = %d, want %d: %s", rec.Code, tc.want, rec.Body.String())
			}
			var e map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
				t.Fatalf("error body = %s", rec.Body.String())
			}
		})
	}
}

func TestAssignRejectsOversizedMatrix(t *testing.T) {
	s := New(Options{MaxNodes: 8})
	rec := postJSON(t, s, "/v1/assign", AssignRequest{Matrix: smallMatrix(t), Servers: []int{0}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "limit") {
		t.Fatalf("body = %s", rec.Body.String())
	}
}

func TestAssignRejectsGet(t *testing.T) {
	s := testServer()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/assign", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", rec.Code)
	}
}

func TestAssignBodyLimit(t *testing.T) {
	s := New(Options{MaxBodyBytes: 64})
	big := fmt.Sprintf(`{"matrix": [[%s]]}`, strings.Repeat("0,", 1000)+"0")
	req := httptest.NewRequest(http.MethodPost, "/v1/assign", strings.NewReader(big))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rec.Code)
	}
}

func TestPlacementHappyPath(t *testing.T) {
	s := testServer()
	for _, strategy := range []string{"", "random", "k-center-a", "k-center-b"} {
		rec := postJSON(t, s, "/v1/placement", PlacementRequest{
			Matrix:   smallMatrix(t),
			K:        4,
			Strategy: strategy,
			Seed:     ptr(int64(7)),
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("strategy %q: status = %d: %s", strategy, rec.Code, rec.Body.String())
		}
		resp := decodeBody[PlacementResponse](t, rec)
		if len(resp.Servers) == 0 || len(resp.Servers) > 4 {
			t.Fatalf("strategy %q: servers = %v", strategy, resp.Servers)
		}
		if resp.CoverRadius <= 0 {
			t.Fatalf("strategy %q: radius = %v", strategy, resp.CoverRadius)
		}
	}
}

func TestPlacementErrors(t *testing.T) {
	s := testServer()
	rec := postJSON(t, s, "/v1/placement", PlacementRequest{Matrix: smallMatrix(t), K: 0})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("k=0 status = %d", rec.Code)
	}
	rec = postJSON(t, s, "/v1/placement", PlacementRequest{K: 2})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("no matrix status = %d", rec.Code)
	}
	rec = postJSON(t, s, "/v1/placement", PlacementRequest{Matrix: smallMatrix(t), K: 2, Strategy: "bogus"})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad strategy status = %d", rec.Code)
	}
}

func TestEndToEndOverRealHTTP(t *testing.T) {
	// The service behind a real TCP listener (httptest.Server).
	ts := httptest.NewServer(testServer())
	defer ts.Close()

	body, err := json.Marshal(AssignRequest{
		Matrix:  smallMatrix(t),
		Servers: []int{0, 4, 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/assign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out AssignResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.D <= 0 || len(out.Assignment) != 20 {
		t.Fatalf("response = %+v", out)
	}
}

func testClientCoords(t *testing.T, n int) []latency.Coord {
	t.Helper()
	cs, err := latency.GenerateCoords(latency.DefaultConfig(n), 3)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestAssignCoordsHappyPath(t *testing.T) {
	s := testServer()
	clients := testClientCoords(t, 400)
	rec := postJSON(t, s, "/v1/assign-coords", AssignCoordsRequest{
		Clients:      clients,
		PlaceServers: 5,
		MaxCells:     64,
		Seed:         ptr(int64(2)),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[AssignCoordsResponse](t, rec)
	if len(resp.Assignment) != len(clients) || len(resp.Servers) != 5 {
		t.Fatalf("assignment %d clients, %d servers", len(resp.Assignment), len(resp.Servers))
	}
	if resp.Cells == 0 || resp.Cells > 64 {
		t.Fatalf("cells = %d", resp.Cells)
	}
	sum := 0
	for _, l := range resp.Loads {
		sum += l
	}
	if sum != len(clients) {
		t.Fatalf("loads sum %d, want %d", sum, len(clients))
	}
}

// TestAssignCoordsBypassesMaxNodes sends more clients than the matrix
// endpoints accept: the coordinate path has no MaxNodes limit.
func TestAssignCoordsBypassesMaxNodes(t *testing.T) {
	s := testServer() // MaxNodes: 256
	clients := testClientCoords(t, 2000)
	rec := postJSON(t, s, "/v1/assign-coords", AssignCoordsRequest{
		Clients:      clients,
		PlaceServers: 8,
		MaxCells:     128,
		Seed:         ptr(int64(4)),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[AssignCoordsResponse](t, rec)
	if len(resp.Assignment) != 2000 {
		t.Fatalf("assignment has %d clients", len(resp.Assignment))
	}
}

func TestAssignCoordsSeedReproducible(t *testing.T) {
	s := testServer()
	clients := testClientCoords(t, 300)
	req := AssignCoordsRequest{
		Clients:        clients,
		PlaceServers:   4,
		MaxCells:       50,
		RandomRestarts: 4,
		Seed:           ptr(int64(11)),
	}
	r1 := decodeBody[AssignCoordsResponse](t, postJSON(t, s, "/v1/assign-coords", req))
	r2 := decodeBody[AssignCoordsResponse](t, postJSON(t, s, "/v1/assign-coords", req))
	if fmt.Sprint(r1.Assignment) != fmt.Sprint(r2.Assignment) || r1.Algorithm != r2.Algorithm {
		t.Fatal("same seed produced different assignments")
	}
}

func TestAssignCoordsValidation(t *testing.T) {
	s := testServer()
	clients := testClientCoords(t, 50)
	servers := clients[:3]
	cases := []struct {
		name string
		req  any
		want int
	}{
		{"no clients", AssignCoordsRequest{Servers: servers}, http.StatusBadRequest},
		{"no servers", AssignCoordsRequest{Clients: clients}, http.StatusBadRequest},
		{"both servers and placeServers", AssignCoordsRequest{Clients: clients, Servers: servers, PlaceServers: 2}, http.StatusBadRequest},
		{"maxCells over limit", AssignCoordsRequest{Clients: clients, Servers: servers, MaxCells: MaxCoordCells + 1}, http.StatusBadRequest},
		{"misaligned capacities", AssignCoordsRequest{Clients: clients, Servers: servers, Capacities: []int{1}}, http.StatusUnprocessableEntity},
		{"unknown algorithm", AssignCoordsRequest{Clients: clients, Servers: servers, Algorithms: []string{"nope"}}, http.StatusUnprocessableEntity},
		// auditPairs is not a field of the request.
		{"auditPairs", map[string]any{"clients": clients, "placeServers": 2, "seed": 1, "auditPairs": 100}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec := postJSON(t, s, "/v1/assign-coords", tc.req)
		if rec.Code != tc.want {
			t.Errorf("%s: status = %d, want %d: %s", tc.name, rec.Code, tc.want, rec.Body.String())
		}
	}
}

// TestAssignSeedPlumbed pins the satellite behavior: a seeded /v1/assign
// request running a randomized algorithm is reproducible, and different
// seeds are allowed to (and here do) differ.
func TestAssignSeedPlumbed(t *testing.T) {
	s := testServer()
	m := smallMatrix(t)
	req := func(seed int64) AssignRequest {
		return AssignRequest{Matrix: m, Servers: []int{0, 1, 2}, Algorithm: "Random", Seed: ptr(seed)}
	}
	r1 := decodeBody[AssignResponse](t, postJSON(t, s, "/v1/assign", req(5)))
	r2 := decodeBody[AssignResponse](t, postJSON(t, s, "/v1/assign", req(5)))
	if fmt.Sprint(r1.Assignment) != fmt.Sprint(r2.Assignment) {
		t.Fatal("same seed produced different Random assignments")
	}
	diff := false
	for seed := int64(6); seed < 12 && !diff; seed++ {
		r3 := decodeBody[AssignResponse](t, postJSON(t, s, "/v1/assign", req(seed)))
		diff = fmt.Sprint(r3.Assignment) != fmt.Sprint(r1.Assignment)
	}
	if !diff {
		t.Fatal("every seed produced the identical Random assignment")
	}
}
