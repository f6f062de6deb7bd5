package service

// End-to-end test against a live in-process cluster: a real
// live.Cluster (TCP servers + clients over the instance's latencies)
// backs the HTTP service's LiveStatus, the service answers /v1/assign
// and /v1/assign-coords over httptest, and every D the API reports is
// recomputed from the returned assignment with core.Evaluator. The
// matrix path must agree bit-for-bit: JSON round-trips float64 exactly,
// and doAssign's MaxInteractionPath shares the eccentricity
// decomposition (and hence the exact float additions) with
// Evaluator.D. The coordinate path crosses internal/scale's own
// eccentricity bookkeeping and CoordsToMatrix's validation floor, so it
// gets the repo's cross-decomposition tolerance instead.

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"diacap/internal/core"
	"diacap/internal/dia"
	"diacap/internal/latency"
	"diacap/internal/live"
)

const e2eCrossTol = 1e-9 // relative; matches the core differential tests

// e2eHealth mirrors handleHealth's JSON shape, live section included.
type e2eHealth struct {
	Status string `json:"status"`
	Live   *struct {
		Servers     int   `json:"servers"`
		DeadServers int   `json:"deadServers"`
		Dead        []int `json:"dead"`
	} `json:"live"`
}

// e2eInstance builds the shared fixture: a ScaledLike matrix with
// disjoint server and client nodes, the way the live tests deal them.
func e2eInstance(t *testing.T, n, ns int, seed int64) (latency.Matrix, []int, []int, *core.Instance) {
	t.Helper()
	m := latency.ScaledLike(n, seed)
	servers := make([]int, ns)
	clients := make([]int, 0, n-ns)
	for i := 0; i < ns; i++ {
		servers[i] = i * (n / ns)
	}
	isServer := make(map[int]bool, ns)
	for _, s := range servers {
		isServer[s] = true
	}
	for i := 0; i < n; i++ {
		if !isServer[i] {
			clients = append(clients, i)
		}
	}
	in, err := core.NewInstanceTrusted(m, servers, clients)
	if err != nil {
		t.Fatal(err)
	}
	return m, servers, clients, in
}

func TestEndToEndAssignAgainstLiveCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a TCP cluster and runs a real-time workload; skipped with -short")
	}
	m, servers, clients, in := e2eInstance(t, 24, 4, 3)

	// First leg: /v1/assign on a plain server; its assignment seeds the
	// cluster, so the deployment under test is exactly what the API
	// returned.
	plain := New(Options{MaxNodes: 256})
	rec := postJSON(t, plain, "/v1/assign", AssignRequest{
		Matrix:    [][]float64(m),
		Servers:   servers,
		Clients:   clients,
		Algorithm: "Greedy",
		Seed:      ptr[int64](7),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/assign status = %d, body %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[AssignResponse](t, rec)

	ev, err := in.NewEvaluator(core.Assignment(resp.Assignment))
	if err != nil {
		t.Fatalf("returned assignment does not evaluate: %v", err)
	}
	if math.Float64bits(resp.D) != math.Float64bits(ev.D()) {
		t.Fatalf("reported D = %v (bits %x) != Evaluator recomputation %v (bits %x)",
			resp.D, math.Float64bits(resp.D), ev.D(), math.Float64bits(ev.D()))
	}
	total := 0
	for k, l := range resp.Loads {
		if l != ev.Load(k) {
			t.Fatalf("loads[%d] = %d, Evaluator says %d", k, l, ev.Load(k))
		}
		total += l
	}
	if total != in.NumClients() {
		t.Fatalf("loads sum to %d, want %d clients", total, in.NumClients())
	}

	// Boot the live cluster at δ = D with the Section II-C offsets.
	a := core.Assignment(resp.Assignment)
	off, err := in.ComputeOffsets(a)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := live.StartCluster(live.ClusterConfig{
		Instance:          in,
		Assignment:        a,
		Delta:             off.D,
		Offsets:           off,
		LatenessTolerance: 35, // headroom for loaded single-core machines
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Second leg: the same service fronting the cluster. /healthz must
	// surface the live section, and /v1/assign must agree with the
	// plain server byte-for-byte on a seeded request.
	s := New(Options{MaxNodes: 256, Live: cluster})
	hrec := httptest.NewRecorder()
	s.ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hrec.Code != http.StatusOK {
		t.Fatalf("/healthz status = %d", hrec.Code)
	}
	health := decodeBody[e2eHealth](t, hrec)
	if health.Status != "ok" {
		t.Fatalf("status = %q with all servers alive", health.Status)
	}
	if health.Live == nil {
		t.Fatal("live section missing with Options.Live set")
	}
	if health.Live.Servers != in.NumServers() || health.Live.DeadServers != 0 {
		t.Fatalf("live = %+v, want %d servers and 0 dead", health.Live, in.NumServers())
	}

	rec2 := postJSON(t, s, "/v1/assign", AssignRequest{
		Matrix:    [][]float64(m),
		Servers:   servers,
		Clients:   clients,
		Algorithm: "Greedy",
		Seed:      ptr[int64](7),
	})
	if rec2.Code != http.StatusOK {
		t.Fatalf("/v1/assign via live server: status = %d", rec2.Code)
	}
	resp2 := decodeBody[AssignResponse](t, rec2)
	if math.Float64bits(resp2.D) != math.Float64bits(resp.D) {
		t.Fatalf("live-backed server D = %v, plain server D = %v", resp2.D, resp.D)
	}

	// Drive a short real-time workload through the cluster: every op
	// executed on every replica, no deadline misses at δ = D.
	ops := dia.UniformWorkload(in.NumClients(), 12, 100, 25)
	res, err := cluster.RunWorkload(ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions != len(ops)*in.NumServers() {
		t.Fatalf("executions = %d, want %d", res.Executions, len(ops)*in.NumServers())
	}
	if res.ServerLate != 0 || res.ClientLate != 0 {
		t.Fatalf("deadline misses at δ = D: %d server, %d client", res.ServerLate, res.ClientLate)
	}
}

func TestEndToEndAssignCoordsMatchesEvaluator(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a 150-client coordinate instance; skipped with -short")
	}
	cfg := latency.DefaultConfig(150)
	coords, err := latency.GenerateCoords(cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{MaxNodes: 256})
	rec := postJSON(t, s, "/v1/assign-coords", AssignCoordsRequest{
		Clients:      coords,
		PlaceServers: 5,
		Seed:         ptr[int64](9),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/assign-coords status = %d, body %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[AssignCoordsResponse](t, rec)
	if len(resp.Assignment) != len(coords) {
		t.Fatalf("assignment covers %d clients, want %d", len(resp.Assignment), len(coords))
	}
	if len(resp.Servers) != 5 {
		t.Fatalf("echoed %d servers, want 5", len(resp.Servers))
	}

	// Materialize the coordinate metric into a matrix instance (clients
	// first, then the echoed servers) and recompute D with Evaluator.
	nodes := append(append([]latency.Coord{}, coords...), resp.Servers...)
	full := latency.CoordsToMatrix(nodes)
	clientIdx := make([]int, len(coords))
	for i := range clientIdx {
		clientIdx[i] = i
	}
	serverIdx := make([]int, len(resp.Servers))
	for k := range serverIdx {
		serverIdx[k] = len(coords) + k
	}
	in, err := core.NewInstanceTrusted(full, serverIdx, clientIdx)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := in.NewEvaluator(core.Assignment(resp.Assignment))
	if err != nil {
		t.Fatalf("returned assignment does not evaluate: %v", err)
	}
	want := ev.D()
	if diff := math.Abs(resp.ExactD - want); diff > e2eCrossTol*math.Max(1, math.Abs(want)) {
		t.Fatalf("reported exactD = %v, Evaluator recomputation = %v (|Δ|=%g beyond %g rel)",
			resp.ExactD, want, diff, e2eCrossTol)
	}

	total := 0
	for _, l := range resp.Loads {
		total += l
	}
	if total != len(coords) {
		t.Fatalf("loads sum to %d, want %d clients", total, len(coords))
	}
}
