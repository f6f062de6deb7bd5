package service

import (
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"diacap/internal/dynamic"
	"diacap/internal/latency"
	"diacap/internal/live"
	"diacap/internal/obs"
)

// stubHealth serves scripted snapshots: each HealthSnapshot call pops
// the next one (the last repeats). The embedded stubLive completes
// LiveStatus for /healthz, which these tests do not read.
type stubHealth struct {
	stubLive
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

// TestAdmissionStateMachineHysteresis pins the exit margin: a score
// oscillating just below the entry threshold cannot flap the state.
func TestAdmissionStateMachineHysteresis(t *testing.T) {
	a := newAdmission(nil)
	steps := []struct {
		score float64
		want  AdmissionState
	}{
		{0.1, AdmissionAccept},
		{0.24, AdmissionAccept},
		{0.70, AdmissionShed},   // straight from accept to shed
		{0.57, AdmissionShed},   // inside the shed exit band: holds
		{0.54, AdmissionAccept}, // below shed − margin: exits
		{0.61, AdmissionShed},
		{0.10, AdmissionAccept}, // collapse all the way down
	}
	state := AdmissionAccept
	for i, st := range steps {
		state = a.nextState(state, st.score)
		if state != st.want {
			t.Fatalf("step %d (score %v): state = %v, want %v", i, st.score, state, st.want)
		}
	}
}

// threeStateNext is the reference for the admission rule: a three-state
// machine with a degraded state between accept and shed, entered at
// 0.25 and 0.6 and left 0.05 below each, whose degraded state answered
// from a cache instead of computing. The two-state machine must shed
// exactly when this one does.
func threeStateNext(state AdmissionState, score float64) AdmissionState {
	const degraded AdmissionState = 1
	degradedScore, shedScore, exitMargin := 0.25, 0.6, 0.05
	switch state {
	case AdmissionShed:
		if score >= shedScore-exitMargin {
			return AdmissionShed
		}
		if score >= degradedScore {
			return degraded
		}
		return AdmissionAccept
	case degraded:
		if score >= shedScore {
			return AdmissionShed
		}
		if score >= degradedScore-exitMargin {
			return degraded
		}
		return AdmissionAccept
	default:
		if score >= shedScore {
			return AdmissionShed
		}
		if score >= degradedScore {
			return degraded
		}
		return AdmissionAccept
	}
}

// TestAdmissionShedsWhereThreeStateRuleSheds drives both machines over
// random score sequences, thresholds and their neighbouring floats
// included, and requires the same shed decision at every step.
func TestAdmissionShedsWhereThreeStateRuleSheds(t *testing.T) {
	a := newAdmission(nil)
	shedScore, exitMargin := 0.6, 0.05
	var edges []float64
	for _, e := range []float64{0.2, 0.25, 0.55, shedScore - exitMargin, 0.6} {
		edges = append(edges, math.Nextafter(e, 0), e, math.Nextafter(e, 1))
	}
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 2000; seq++ {
		ref, got := AdmissionAccept, AdmissionAccept
		for step := 0; step < 200; step++ {
			score := rng.Float64()
			if rng.Intn(2) == 0 {
				score = edges[rng.Intn(len(edges))]
			}
			ref = threeStateNext(ref, score)
			got = a.nextState(got, score)
			if (ref == AdmissionShed) != (got == AdmissionShed) {
				t.Fatalf("sequence %d step %d (score %v): state %v, three-state rule %v",
					seq, step, score, got, ref)
			}
		}
	}
}

// admissionServer builds a service whose admission controller sees the
// scripted snapshots with zero refresh spacing (every request re-scores).
func admissionServer(t *testing.T, reg *obs.Registry, snaps ...live.HealthSnapshot) *Server {
	t.Helper()
	s := New(Options{MaxNodes: 256, Metrics: reg, Live: &stubHealth{snaps: snaps}})
	s.admission.window = time.Nanosecond
	return s
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

// TestAdmissionAnswersEachRequestItself pins that admission never
// answers a request with another request's result: with the health
// score below the shed threshold, each /v1/assign response equals what
// a server without admission returns for the same body.
func TestAdmissionAnswersEachRequestItself(t *testing.T) {
	// 3 of 4 servers dead scores 0.3375 on every reading: unhealthy,
	// but below shedding.
	limping := live.HealthSnapshot{Servers: 4, DeadServers: 3, Clients: 10}
	s := admissionServer(t, nil, limping)
	plain := testServer()
	reqs := []AssignRequest{
		{Matrix: smallMatrix(t), Servers: []int{0, 1}, Algorithm: "Greedy", Seed: ptr[int64](1)},
		{Matrix: [][]float64(latency.ScaledLike(60, 2)), Servers: []int{0, 1, 2}, Algorithm: "Nearest-Server"},
	}
	for i, req := range reqs {
		rec := postJSON(t, s, "/v1/assign", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status = %d: %s", i, rec.Code, rec.Body.String())
		}
		if h := rec.Header().Get("X-Diacap-Stale"); h != "" {
			t.Fatalf("request %d carries X-Diacap-Stale: %s", i, h)
		}
		got := decodeBody[AssignResponse](t, rec)
		want := decodeBody[AssignResponse](t, postJSON(t, plain, "/v1/assign", req))
		got.ElapsedMs, want.ElapsedMs = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("request %d answered with %s D=%v over %d clients, want its own %s D=%v over %d",
				i, got.Algorithm, got.D, len(got.Assignment), want.Algorithm, want.D, len(want.Assignment))
		}
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestAdmissionShedsBeforeReadingBody pins that a shed request costs no
// decoding: the 429 comes before the first byte of the body is read, so
// a large or malformed body gets the same answer as any other.
func TestAdmissionShedsBeforeReadingBody(t *testing.T) {
	sick := live.HealthSnapshot{
		Servers: 4, DeadServers: 4, Clients: 10,
		Failovers: 100, ReconnectAttempts: 10000,
		Deliveries: 100, LagSpreadSum: 100 * 1000,
	}
	s := admissionServer(t, nil, sick)
	s.admission.shedScore = 0.2 // the first reading's dead fraction sheds
	for _, path := range []string{"/v1/assign", "/v1/assign-coords"} {
		body := &countingReader{r: strings.NewReader(strings.Repeat("x", 4096))}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		if rec.Code != http.StatusTooManyRequests || body.n != 0 {
			t.Fatalf("%s: status %d after reading %d body bytes, want 429 after none: %s",
				path, rec.Code, body.n, rec.Body.String())
		}
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

	s := New(Options{MaxNodes: 256, Live: cluster})
	s.admission.window = time.Nanosecond
	// A threshold scaled so that dead servers + failover churn, which a
	// 4-server fixture can realistically produce, cross into shedding.
	s.admission.shedScore = 0.20
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
	// survivor: dead fraction 0.5 alone puts the score at 0.225, above
	// the 0.20 shed score.
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
