package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"diacap/internal/latency"
	"diacap/internal/live"
	"diacap/internal/obs"
	"diacap/internal/shard"
)

// tracedShardServer wires one tracer and one flight recorder through
// both the service and the shard plane, the production topology.
func tracedShardServer(t *testing.T) (*Server, *obs.Tracer, *obs.Recorder) {
	t.Helper()
	cs, err := latency.GenerateCoords(latency.DefaultConfig(44), 21)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1, Seed: 5})
	fl := obs.NewRecorder(0)
	p, err := shard.New(shard.Options{
		Servers: cs[:4], Clients: cs[4:], Tracer: tr, Flight: fl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(Options{Shard: p, Tracer: tr, Flight: fl}), tr, fl
}

func findSpan(nodes []*obs.SpanNode, name string) *obs.SpanNode {
	for _, n := range nodes {
		if n.Name == name {
			return n
		}
		if c := findSpan(n.Children, name); c != nil {
			return c
		}
	}
	return nil
}

// TestTracedShardAssignEndToEnd is the acceptance path: a traced
// /v1/shard/assign responds with X-Diacap-Trace, the id resolves at
// /debug/trace to a span tree whose layers (decode, plane op, publish)
// hang off the HTTP root, and the per-layer timings nest inside the
// measured request latency.
func TestTracedShardAssignEndToEnd(t *testing.T) {
	s, _, fl := tracedShardServer(t)

	rec := postJSON(t, s, "/v1/shard/assign", ShardAssignRequest{Op: "join", Client: 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("join: status %d: %s", rec.Code, rec.Body.String())
	}
	trace := rec.Header().Get(TraceHeader)
	if len(trace) != 32 {
		t.Fatalf("%s = %q, want a 32-hex trace id", TraceHeader, trace)
	}

	drec := httptest.NewRecorder()
	s.ServeHTTP(drec, httptest.NewRequest(http.MethodGet, "/debug/trace?trace="+trace, nil))
	if drec.Code != http.StatusOK {
		t.Fatalf("/debug/trace: status %d: %s", drec.Code, drec.Body.String())
	}
	doc := decodeBody[obs.TraceDoc](t, drec)
	if doc.Trace != trace {
		t.Fatalf("trace doc id = %q, want %q", doc.Trace, trace)
	}
	if len(doc.Tree) != 1 {
		t.Fatalf("trace has %d roots, want 1", len(doc.Tree))
	}
	root := doc.Tree[0]
	if root.Name != "http /v1/shard/assign" {
		t.Fatalf("root span = %q", root.Name)
	}
	for _, name := range []string{"service.decode", "plane.join", "plane.publish"} {
		if findSpan(doc.Tree, name) == nil {
			t.Fatalf("span %q missing from the tree; spans: %d", name, len(doc.Spans))
		}
	}
	if pub := findSpan(doc.Tree, "plane.publish"); pub == nil || findSpan([]*obs.SpanNode{findSpan(doc.Tree, "plane.join")}, "plane.publish") == nil {
		t.Fatal("plane.publish is not nested under plane.join")
	}

	// Layer attribution: every direct child fits inside the root, and the
	// layers together account for no more than the measured latency
	// (children are sequential here; 1ms slop absorbs clock granularity).
	var sum float64
	for _, c := range root.Children {
		if c.Duration > root.Duration+1 {
			t.Fatalf("child %q (%.3fms) exceeds root (%.3fms)", c.Name, c.Duration, root.Duration)
		}
		sum += c.Duration
	}
	if sum > root.Duration+1 {
		t.Fatalf("children sum to %.3fms, root measured %.3fms", sum, root.Duration)
	}

	// The request landed in the flight recorder's requests journal under
	// the same trace.
	reqs := fl.Journal(JournalRequests, 0).Snapshot()
	found := false
	for _, e := range reqs {
		if e.Kind == "/v1/shard/assign" && e.Trace == trace {
			found = true
		}
	}
	if !found {
		t.Fatalf("requests journal has no event for trace %s: %+v", trace, reqs)
	}

	// /debug/flight serves the same journals over HTTP.
	frec := httptest.NewRecorder()
	s.ServeHTTP(frec, httptest.NewRequest(http.MethodGet, "/debug/flight", nil))
	if frec.Code != http.StatusOK {
		t.Fatalf("/debug/flight: status %d", frec.Code)
	}
	dump := decodeBody[obs.FlightDump](t, frec)
	if _, ok := dump.Journals[JournalRequests]; !ok {
		t.Fatalf("/debug/flight dump missing %q journal: %v", JournalRequests, dump.Journals)
	}
}

// TestTraceparentAdoption pins W3C propagation on the HTTP edge: a
// request carrying a sampled traceparent keeps its caller-chosen trace
// id end to end.
func TestTraceparentAdoption(t *testing.T) {
	s, tr, _ := tracedShardServer(t)
	const remote = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	req := httptest.NewRequest(http.MethodGet, "/v1/shard/snapshot", nil)
	req.Header.Set(obs.TraceparentHeader, remote)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot: status %d", rec.Code)
	}
	if got := rec.Header().Get(TraceHeader); got != "0123456789abcdef0123456789abcdef" {
		t.Fatalf("%s = %q, want the remote trace id", TraceHeader, got)
	}
	spans := tr.Collect("0123456789abcdef0123456789abcdef")
	if len(spans) == 0 {
		t.Fatal("no spans recorded under the adopted trace")
	}
	root := spans[len(spans)-1]
	if root.Parent != "00f067aa0ba902b7" {
		t.Fatalf("adopted root's parent = %q, want the remote span id", root.Parent)
	}
}

// TestUntracedServerStillServes pins the nil-tracer path: no header, no
// /debug/trace route, everything else identical.
func TestUntracedServerStillServes(t *testing.T) {
	s, _ := shardServer(t)
	rec := postJSON(t, s, "/v1/shard/assign", ShardAssignRequest{Op: "join", Client: 0})
	if rec.Code != http.StatusOK {
		t.Fatalf("join: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(TraceHeader); got != "" {
		t.Fatalf("untraced response carries %s = %q", TraceHeader, got)
	}
	drec := httptest.NewRecorder()
	s.ServeHTTP(drec, httptest.NewRequest(http.MethodGet, "/debug/trace", nil))
	if drec.Code != http.StatusNotFound {
		t.Fatalf("/debug/trace without a tracer: status %d, want 404", drec.Code)
	}
}

// TestHealthzShardSection pins the plane section of /healthz: the
// published epoch, active count, D and certified D, and one plane-wide
// last-repair time, zero until the first Repair. The plane has no
// shards, so the section lists none.
func TestHealthzShardSection(t *testing.T) {
	s, p := shardServer(t)
	if _, err := p.Join(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	section := func() map[string]any {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/healthz: status %d", rec.Code)
		}
		body := decodeBody[map[string]any](t, rec)
		sh, ok := body["shard"].(map[string]any)
		if !ok {
			t.Fatalf("/healthz has no shard section: %v", body)
		}
		return sh
	}
	sh := section()
	if sh["epoch"].(float64) != 2 || sh["active"].(float64) != 1 {
		t.Fatalf("shard section epoch/active: %v", sh)
	}
	for _, key := range []string{"d", "certifiedD", "lastRepair"} {
		if _, ok := sh[key]; !ok {
			t.Fatalf("shard section missing %q: %v", key, sh)
		}
	}
	if _, ok := sh["shards"]; ok {
		t.Fatalf("shard section still lists shards: %v", sh)
	}
	if got := sh["lastRepair"]; got != (time.Time{}).Format(time.RFC3339Nano) {
		t.Fatalf("lastRepair %v before any Repair, want the zero time", got)
	}
	p.Repair(context.Background(), 0)
	last, err := time.Parse(time.RFC3339Nano, section()["lastRepair"].(string))
	if err != nil || last.IsZero() {
		t.Fatalf("lastRepair after a Repair: %v, %v", last, err)
	}
}

// TestShedDumpCarriesTriggeringTrace is the flight-recorder acceptance
// path: the request that tips admission into shedding gets a 429 whose
// trace id appears in the admission journal and in the automatic
// "admission-shed" dump, the dominant component is journaled and
// counted, and the structured log names it.
func TestShedDumpCarriesTriggeringTrace(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1, Seed: 13})
	fl := obs.NewRecorder(0)
	var dumped bytes.Buffer
	fl.SetDumpWriter(&dumped)
	sick := live.HealthSnapshot{
		Servers: 4, DeadServers: 4, Clients: 10,
		Failovers: 100, ReconnectAttempts: 10000,
		Deliveries: 100, LagSpreadSum: 100 * 1000,
	}
	s := New(Options{
		MaxNodes: 256,
		Metrics:  reg,
		Tracer:   tr,
		Flight:   fl,
		Live:     &stubHealth{snaps: []live.HealthSnapshot{{Servers: 4, Clients: 10}, sick}},
	})
	s.admission.window = time.Nanosecond
	req := AssignRequest{
		Matrix: smallMatrix(t), Servers: []int{0, 1}, Algorithm: "Greedy", Seed: ptr[int64](1),
	}
	if rec := postJSON(t, s, "/v1/assign", req); rec.Code != http.StatusOK {
		t.Fatalf("quiet: status %d: %s", rec.Code, rec.Body.String())
	}
	rec := postJSON(t, s, "/v1/assign", req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("sick: status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	trace := rec.Header().Get(TraceHeader)
	if trace == "" {
		t.Fatalf("shed response has no %s header", TraceHeader)
	}

	adm := fl.Journal(JournalAdmission, 0).Snapshot()
	if len(adm) != 1 {
		t.Fatalf("admission journal has %d events, want the shed transition", len(adm))
	}
	ev := adm[0]
	if ev.Kind != AdmissionShed.String() {
		t.Fatalf("admission journal kind = %q, want %q", ev.Kind, AdmissionShed.String())
	}
	if ev.Trace != trace {
		t.Fatalf("shed journal trace = %q, want the triggering request's %q", ev.Trace, trace)
	}
	attrs := map[string]string{}
	for _, a := range ev.Attrs {
		attrs[a.Key] = a.Value
	}
	// Every component saturated; dead servers carry the largest weight.
	if attrs["dominant"] != "dead_servers" {
		t.Fatalf("journaled dominant = %q, want dead_servers (attrs %v)", attrs["dominant"], ev.Attrs)
	}
	if got := reg.Counter(nAdmShedComp, "", obs.L("component", "dead_servers")).Value(); got != 1 {
		t.Fatalf("shed component counter = %d, want 1", got)
	}

	out := dumped.String()
	if !strings.Contains(out, "admission-shed") {
		t.Fatalf("no automatic admission-shed dump was written:\n%s", out)
	}
	if !strings.Contains(out, trace) {
		t.Fatalf("admission-shed dump does not contain the triggering trace %s:\n%s", trace, out)
	}
}

// TestLatencyExemplarLinksTrace pins the metrics→trace cross-link: after
// a traced request, the request-duration histogram holds an exemplar
// carrying that trace id.
func TestLatencyExemplarLinksTrace(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1, Seed: 3})
	s := New(Options{MaxNodes: 256, Metrics: reg, Tracer: tr})
	rec := postJSON(t, s, "/v1/assign", AssignRequest{
		Matrix: smallMatrix(t), Servers: []int{0, 1}, Algorithm: "Greedy", Seed: ptr[int64](1),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("assign: status %d: %s", rec.Code, rec.Body.String())
	}
	trace := rec.Header().Get(TraceHeader)
	h := reg.Histogram(nHTTPSeconds, "", obs.SecondsBuckets, obs.L("endpoint", "/v1/assign"))
	found := false
	for _, ex := range h.Exemplars() {
		if ex != nil && ex.Trace == trace {
			found = true
		}
	}
	if !found {
		t.Fatalf("no exemplar carries trace %s", trace)
	}
}
