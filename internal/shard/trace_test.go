package shard_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"diacap/internal/dynamic"
	"diacap/internal/obs"
	"diacap/internal/shard"
)

// canonSpans strips wall-clock fields (start time, durations, event
// offsets) from a span snapshot, leaving only the deterministic shape:
// IDs, parent links, names, attrs, and event names/attrs.
func canonSpans(recs []obs.SpanRecord) []obs.SpanRecord {
	out := make([]obs.SpanRecord, len(recs))
	for i, r := range recs {
		r.Start = time.Time{}
		r.Duration = 0
		evs := make([]obs.SpanEvent, len(r.Events))
		for k, e := range r.Events {
			e.OffsetMs = 0
			evs[k] = e
		}
		r.Events = evs
		out[i] = r
	}
	return out
}

// TestReplaySpanTreeDeterministic replays the same scenario through two
// planes with identically seeded tracers and demands the recorded span
// forests match exactly (modulo wall-clock timings): same IDs, same
// parentage, same per-span evaluator events and attributes. This is the
// observability analogue of the bit-determinism contract — traces are
// reproducible evidence, not best-effort decoration.
func TestReplaySpanTreeDeterministic(t *testing.T) {
	run := func() []obs.SpanRecord {
		sc, err := dynamic.BuildScenario("storm", 3)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1, Capacity: 1 << 14, Seed: 99})
		p, err := shard.NewFromPopulation(sc.Pop, shard.Options{Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Replay(context.Background(), sc); err != nil {
			t.Fatal(err)
		}
		return tr.Snapshot()
	}
	a, b := canonSpans(run()), canonSpans(run())
	if len(a) == 0 {
		t.Fatal("traced replay produced no spans")
	}
	if len(a) != len(b) {
		t.Fatalf("span counts differ across identical runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if fmt.Sprintf("%+v", a[i]) != fmt.Sprintf("%+v", b[i]) {
			t.Fatalf("span %d differs:\n run1: %+v\n run2: %+v", i, a[i], b[i])
		}
	}
	// The forest must contain evaluator-level events: attribution reaches
	// below the plane op into the incremental evaluator.
	evEvents := 0
	for _, r := range a {
		for _, e := range r.Events {
			switch e.Name {
			case "evaluator.join", "evaluator.leave", "evaluator.move":
				evEvents++
			}
		}
	}
	if evEvents == 0 {
		t.Fatal("no evaluator.* events recorded during a traced replay")
	}
}

// TestPlaneOpSpanShape drives one traced Join and checks the span's
// identity and payload end to end: child of the caller's root, carrying
// client/server/epoch/d attrs (and no shard) and at least one evaluator
// event.
func TestPlaneOpSpanShape(t *testing.T) {
	servers, clients := testCoords(t, 80, 6, 21)
	tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1, Seed: 7})
	p, err := shard.New(shard.Options{Servers: servers, Clients: clients, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	ctx, root := tr.Root(context.Background(), "test.root")
	if _, err := p.Join(ctx, 3); err != nil {
		t.Fatal(err)
	}
	root.End()

	recs := tr.Collect(root.TraceID())
	byName := map[string]obs.SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	join, ok := byName["plane.join"]
	if !ok {
		t.Fatalf("no plane.join span in trace; got %d spans", len(recs))
	}
	if join.Parent != byName["test.root"].Span {
		t.Fatalf("plane.join parent = %q, want root span %q", join.Parent, byName["test.root"].Span)
	}
	pub, ok := byName["plane.publish"]
	if !ok {
		t.Fatal("no plane.publish span: reconciliation is unattributed")
	}
	if pub.Parent != join.Span {
		t.Fatalf("plane.publish parent = %q, want plane.join span %q", pub.Parent, join.Span)
	}
	attrs := map[string]string{}
	for _, a := range join.Attrs {
		attrs[a.Key] = a.Value
	}
	for _, key := range []string{"client", "server", "epoch", "d"} {
		if _, ok := attrs[key]; !ok {
			t.Fatalf("plane.join span missing attr %q; attrs: %v", key, join.Attrs)
		}
	}
	if _, ok := attrs["shard"]; ok {
		t.Fatalf("plane.join span has a shard attr; attrs: %v", join.Attrs)
	}
	if attrs["client"] != "3" {
		t.Fatalf("plane.join client attr = %q, want 3", attrs["client"])
	}
	found := false
	for _, e := range join.Events {
		if e.Name == "evaluator.join" {
			found = true
		}
	}
	if !found {
		t.Fatal("plane.join span has no evaluator.join event")
	}
}

// TestPlaneJournals checks the flight-recorder side: kills and restarts
// land in the failover journal under the caller's trace, every publish
// lands in the epoch journal with its epoch, d and active count, and a
// kill triggers an automatic "server-kill" dump that contains the
// triggering trace ID.
func TestPlaneJournals(t *testing.T) {
	servers, clients := testCoords(t, 100, 6, 31)
	tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1, Seed: 11})
	fl := obs.NewRecorder(0)
	p, err := shard.New(shard.Options{Servers: servers, Clients: clients, Tracer: tr, Flight: fl})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 40; c++ {
		if _, err := p.Join(context.Background(), c); err != nil {
			t.Fatal(err)
		}
	}
	ctx, root := tr.Root(context.Background(), "test.kill")
	if _, _, err := p.KillServer(ctx, 1); err != nil {
		t.Fatal(err)
	}
	root.End()
	if _, err := p.RestartServer(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	fo := fl.Journal(shard.JournalFailover, 0).Snapshot()
	if len(fo) != 2 {
		t.Fatalf("failover journal has %d events, want kill + restart", len(fo))
	}
	if fo[0].Kind != "kill" || fo[1].Kind != "restart" {
		t.Fatalf("failover journal kinds = %q, %q; want kill, restart", fo[0].Kind, fo[1].Kind)
	}
	if fo[0].Trace != root.TraceID() {
		t.Fatalf("kill journal trace = %q, want the caller's %q", fo[0].Trace, root.TraceID())
	}

	ep := fl.Journal(shard.JournalEpoch, 0).Snapshot()
	if len(ep) == 0 {
		t.Fatal("epoch journal empty after joins and a kill")
	}
	cur := p.Current()
	var keys []string
	last := map[string]string{}
	for _, a := range ep[len(ep)-1].Attrs {
		keys = append(keys, a.Key)
		last[a.Key] = a.Value
	}
	if got, want := last["epoch"], fmt.Sprint(cur.Epoch); got != want {
		t.Fatalf("latest epoch journal event epoch = %q, want %q", got, want)
	}
	if got := fmt.Sprint(keys); got != "[epoch d active]" {
		t.Fatalf("epoch journal attrs %s, want [epoch d active]", got)
	}

	// The kill auto-dumped: its snapshot machinery must agree with what
	// the journals hold now (the dump itself went to the dump writer; we
	// verify Snapshot produces the same journal set).
	dump := fl.Snapshot("test")
	for _, name := range []string{shard.JournalFailover, shard.JournalEpoch} {
		if _, ok := dump.Journals[name]; !ok {
			t.Fatalf("flight dump missing journal %q", name)
		}
	}
}

// TestPlaneHealth pins the plane-wide health surface: LastRepair is
// the zero time until the first Repair and the wall time of the last
// Repair after it, whether or not the repair moved anyone.
func TestPlaneHealth(t *testing.T) {
	servers, clients := testCoords(t, 90, 5, 41)
	p, err := shard.New(shard.Options{Servers: servers, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 30; c++ {
		if _, err := p.Join(context.Background(), c); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.LastRepair(); !got.IsZero() {
		t.Fatalf("LastRepair() = %v before any Repair", got)
	}
	for range 2 {
		before := time.Now()
		if moves := p.Repair(context.Background(), 0); moves != 0 {
			t.Fatalf("GreedyJoin's repair moved %d clients", moves)
		}
		if got := p.LastRepair(); got.Before(before.Truncate(0)) || got.After(time.Now()) {
			t.Fatalf("LastRepair() = %v, want a time after %v", got, before)
		}
	}
	if s := p.Current(); s.Active != 30 {
		t.Fatalf("active %d, want 30", s.Active)
	}
}
