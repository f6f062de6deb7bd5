package service

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"diacap/internal/dynamic"
	"diacap/internal/live"
	"diacap/internal/obs"
)

// stubHealth serves scripted snapshots: each HealthSnapshot call pops
// the next one (the last repeats).
type stubHealth struct {
	mu    sync.Mutex
	snaps []live.HealthSnapshot
	i     int
}

func (h *stubHealth) HealthSnapshot() live.HealthSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.i < len(h.snaps)-1 {
		h.i++
		return h.snaps[h.i-1]
	}
	return h.snaps[len(h.snaps)-1]
}

func TestHealthScoreComponents(t *testing.T) {
	base := live.HealthSnapshot{Servers: 8, Clients: 40}
	cases := []struct {
		name string
		cur  live.HealthSnapshot
		want float64
	}{
		{"quiet", base, 0},
		{"half dead", live.HealthSnapshot{Servers: 8, DeadServers: 4, Clients: 40}, 0.225},
		{"failover storm", live.HealthSnapshot{Servers: 8, Clients: 40, Failovers: 10}, 0.20},
		{"reconnect storm", live.HealthSnapshot{Servers: 8, Clients: 40, ReconnectAttempts: 400}, 0.20},
		{"lag blowout", live.HealthSnapshot{Servers: 8, Clients: 40, Deliveries: 100, LagSpreadSum: 100 * 50}, 0.15},
		{"everything at once", live.HealthSnapshot{
			Servers: 8, DeadServers: 8, Clients: 40,
			Failovers: 10, ReconnectAttempts: 400,
			Deliveries: 100, LagSpreadSum: 100 * 50,
		}, 1.0},
	}
	for _, tc := range cases {
		if got := healthScore(base, tc.cur, 10); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: score = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Deltas are against the base: absolute counter values don't matter.
	prev := live.HealthSnapshot{Servers: 8, Clients: 40, Failovers: 100, ReconnectAttempts: 1000}
	cur := prev
	if got := healthScore(prev, cur, 10); got != 0 {
		t.Errorf("unchanged counters scored %v, want 0", got)
	}
}

// TestAdmissionStateMachineHysteresis pins the exit margins: a score
// oscillating just below an entry threshold cannot flap the state.
func TestAdmissionStateMachineHysteresis(t *testing.T) {
	cfg := AdmissionConfig{DegradedScore: 0.25, ShedScore: 0.6, ExitMargin: 0.05}
	steps := []struct {
		score float64
		want  AdmissionState
	}{
		{0.1, AdmissionAccept},
		{0.24, AdmissionAccept}, // below entry
		{0.30, AdmissionDegraded},
		{0.22, AdmissionDegraded}, // inside the exit band: holds
		{0.19, AdmissionAccept},   // below entry − margin: exits
		{0.70, AdmissionShed},     // straight from accept to shed
		{0.57, AdmissionShed},     // inside the shed exit band: holds
		{0.54, AdmissionDegraded}, // below shed − margin, above degraded
		{0.61, AdmissionShed},
		{0.10, AdmissionAccept}, // collapse all the way down
	}
	state := AdmissionAccept
	for i, st := range steps {
		state = cfg.nextState(state, st.score)
		if state != st.want {
			t.Fatalf("step %d (score %v): state = %v, want %v", i, st.score, state, st.want)
		}
	}
}

// admissionServer builds a service whose admission controller sees the
// scripted snapshots with zero refresh spacing (every request re-scores).
func admissionServer(t *testing.T, reg *obs.Registry, snaps ...live.HealthSnapshot) *Server {
	t.Helper()
	return New(Options{
		MaxNodes: 256,
		Metrics:  reg,
		Admission: &AdmissionConfig{
			Health: &stubHealth{snaps: snaps},
			Window: time.Nanosecond,
		},
	})
}

func TestAdmissionShedsWith429AndRetryAfter(t *testing.T) {
	reg := obs.NewRegistry()
	// Maximal churn: everything saturated → score 1 → shed immediately.
	sick := live.HealthSnapshot{
		Servers: 4, DeadServers: 4, Clients: 10,
		Failovers: 100, ReconnectAttempts: 10000,
		Deliveries: 100, LagSpreadSum: 100 * 1000,
	}
	s := admissionServer(t, reg, live.HealthSnapshot{Servers: 4, Clients: 10}, sick)
	// First request scores the quiet snapshot and computes.
	rec := postJSON(t, s, "/v1/assign", AssignRequest{
		Matrix: smallMatrix(t), Servers: []int{0, 1}, Algorithm: "Greedy", Seed: ptr[int64](1),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("quiet cluster: status = %d: %s", rec.Code, rec.Body.String())
	}
	// Second request sees the sick snapshot: shed, never computed.
	rec = postJSON(t, s, "/v1/assign", AssignRequest{
		Matrix: smallMatrix(t), Servers: []int{0, 1}, Algorithm: "Greedy", Seed: ptr[int64](1),
	})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("sick cluster: status = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	retry, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || retry <= 0 {
		t.Fatalf("Retry-After = %q, want a positive integer", rec.Header().Get("Retry-After"))
	}
	if body := decodeBody[map[string]string](t, rec); body["error"] == "" {
		t.Fatalf("shed response has no JSON error: %v", body)
	}
	if got := reg.Counter(nAdmDecisions, "", obs.L("decision", "shed")).Value(); got != 1 {
		t.Errorf("shed decisions = %d, want 1", got)
	}
	if got := reg.Counter(nAdmDecisions, "", obs.L("decision", "accept")).Value(); got != 1 {
		t.Errorf("accept decisions = %d, want 1", got)
	}
	if st := reg.Gauge(nAdmState, "").Value(); st != float64(AdmissionShed) {
		t.Errorf("state gauge = %v, want %v", st, float64(AdmissionShed))
	}
}

func TestAdmissionDegradedServesStaleSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	quiet := live.HealthSnapshot{Servers: 4, Clients: 10}
	// 2 of 4 dead and a mild reconnect trickle: degraded, not shed.
	limping := live.HealthSnapshot{Servers: 4, DeadServers: 2, Clients: 10, ReconnectAttempts: 40}
	s := admissionServer(t, reg, quiet, limping)
	req := AssignRequest{
		Matrix: smallMatrix(t), Servers: []int{0, 1}, Algorithm: "Greedy", Seed: ptr[int64](1),
	}
	// Request 1: quiet → fresh computation, cached as the stale snapshot.
	rec := postJSON(t, s, "/v1/assign", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("quiet: status = %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Diacap-Stale") != "" {
		t.Fatal("fresh response carries the stale header")
	}
	fresh := decodeBody[AssignResponse](t, rec)

	// Request 2: degraded → the cached snapshot, marked stale.
	rec = postJSON(t, s, "/v1/assign", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded: status = %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Diacap-Stale") == "" {
		t.Fatal("degraded response is missing the X-Diacap-Stale header")
	}
	stale := decodeBody[AssignResponse](t, rec)
	if stale.D != fresh.D || len(stale.Assignment) != len(fresh.Assignment) {
		t.Fatalf("stale snapshot %v does not match the cached response %v", stale, fresh)
	}
	if got := reg.Counter(nAdmDecisions, "", obs.L("decision", "stale")).Value(); got != 1 {
		t.Errorf("stale decisions = %d, want 1", got)
	}
}

func TestAdmissionDegradedCacheMissComputes(t *testing.T) {
	// Degraded from the very first request: no snapshot cached yet, so
	// the request computes (and seeds the cache) instead of failing.
	// 3 of 4 dead scores 0.3375 instantaneously — degraded without any
	// rate components.
	limping := live.HealthSnapshot{Servers: 4, DeadServers: 3, Clients: 10}
	s := admissionServer(t, nil, limping)
	req := AssignRequest{
		Matrix: smallMatrix(t), Servers: []int{0, 1}, Algorithm: "Greedy", Seed: ptr[int64](1),
	}
	rec := postJSON(t, s, "/v1/assign", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("cache miss: status = %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Diacap-Stale") != "" {
		t.Fatal("computed cache-miss response carries the stale header")
	}
	rec = postJSON(t, s, "/v1/assign", req)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Diacap-Stale") == "" {
		t.Fatalf("second degraded request: status %d, stale header %q",
			rec.Code, rec.Header().Get("X-Diacap-Stale"))
	}
}

// TestServiceCapacityInfeasibleTypedError covers the service path of
// the churn-burst guarantee: a request whose capacities cannot hold its
// clients yields a typed HTTP error (422 + JSON), never a panic or a
// capacity-violating assignment.
func TestServiceCapacityInfeasibleTypedError(t *testing.T) {
	s := testServer()
	rec := postJSON(t, s, "/v1/assign", AssignRequest{
		Matrix:     smallMatrix(t),
		Servers:    []int{0, 1},
		Algorithm:  "Greedy",
		Capacities: []int{3, 3}, // 6 slots for 20 clients
		Seed:       ptr[int64](1),
	})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", rec.Code, rec.Body.String())
	}
	if body := decodeBody[map[string]string](t, rec); body["error"] == "" {
		t.Fatalf("infeasible request has no JSON error: %v", body)
	}

	// Tight-but-sufficient capacities must still be honored exactly.
	rec = postJSON(t, s, "/v1/assign", AssignRequest{
		Matrix:     smallMatrix(t),
		Servers:    []int{0, 1},
		Algorithm:  "Greedy",
		Capacities: []int{10, 10},
		Seed:       ptr[int64](1),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("feasible tight caps: status = %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[AssignResponse](t, rec)
	for k, l := range resp.Loads {
		if l > 10 {
			t.Fatalf("server %d load %d violates capacity 10", k, l)
		}
	}
}

// TestAdmissionAgainstRealCluster drives the controller from an actual
// live.Cluster's telemetry: healthy accepts; after kills and a failover
// storm the service sheds with 429 instead of timing out.
func TestAdmissionAgainstRealCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a TCP cluster; skipped with -short")
	}
	m, servers, clients, in := e2eInstance(t, 16, 4, 5)
	a := make([]int, in.NumClients())
	for i := range a {
		a[i] = i % in.NumServers()
	}
	off, err := in.ComputeOffsets(a)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := live.StartCluster(live.ClusterConfig{
		Instance:            in,
		Assignment:          a,
		Delta:               off.D,
		Offsets:             off,
		LatenessTolerance:   35,
		ReconnectJitterSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	s := New(Options{
		MaxNodes: 256,
		Live:     cluster,
		Admission: &AdmissionConfig{
			Health: cluster,
			Window: time.Nanosecond,
			// Thresholds scaled so that dead servers + failover churn,
			// which a 4-server fixture can realistically produce, cross
			// into shedding.
			DegradedScore: 0.10,
			ShedScore:     0.20,
			RetryAfter:    time.Second,
		},
	})
	req := AssignRequest{
		Matrix:  [][]float64(m),
		Servers: servers,
		Clients: clients,
		Seed:    ptr[int64](3),
	}
	if rec := postJSON(t, s, "/v1/assign", req); rec.Code != http.StatusOK {
		t.Fatalf("healthy cluster: status = %d: %s", rec.Code, rec.Body.String())
	}

	// Kill half the cluster and fail over each orphan to its nearest
	// survivor: dead fraction 0.5 alone puts the score at 0.225 ≥
	// ShedScore.
	if err := cluster.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Kill(2); err != nil {
		t.Fatal(err)
	}
	ev, err := in.NewEvaluator(a)
	if err != nil {
		t.Fatal(err)
	}
	alive := []bool{true, false, false, true}
	for _, k := range []int{1, 2} {
		if _, err := dynamic.Evacuate(ev, dynamic.NewNearestJoin(in), dynamic.EffectiveCaps(nil, alive, in.NumClients()), k, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cluster.Failover(ev.Assignment()); err != nil {
		t.Fatal(err)
	}
	snap := cluster.HealthSnapshot()
	if snap.DeadServers != 2 || snap.Failovers != 1 || snap.ReconnectAttempts == 0 {
		t.Fatalf("health snapshot did not register the storm: %+v", snap)
	}

	rec := postJSON(t, s, "/v1/assign", req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("degraded cluster: status = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response is missing Retry-After")
	}
}
