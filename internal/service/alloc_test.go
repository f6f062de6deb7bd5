package service

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"diacap/internal/obs"
	"diacap/internal/testkit"
)

// replayBody is a resettable request body, so the same http.Request can
// serve many handler invocations without per-run reader allocations.
type replayBody struct {
	data []byte
	off  int
}

func (b *replayBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *replayBody) Close() error { return nil }

// sinkWriter is the minimal ResponseWriter: one reused header map, body
// bytes discarded. It stands in for net/http's writer so the test
// measures the handler's own allocations, not the transport's.
type sinkWriter struct {
	h http.Header
	n int
}

func (w *sinkWriter) Header() http.Header { return w.h }
func (w *sinkWriter) WriteHeader(int)     {}
func (w *sinkWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// serveAllocs measures steady-state allocations of one serving handler:
// a warm-up request fills the pooled scratch to the request's working
// size, then AllocsPerRun drives the identical request through the full
// handler (admission gate, body read, parse, snapshot view, resolve,
// encode, write).
func serveAllocs(t *testing.T, path, body string, handler http.HandlerFunc) float64 {
	t.Helper()
	rb := &replayBody{data: []byte(body)}
	req, err := http.NewRequest(http.MethodPost, path, rb)
	if err != nil {
		t.Fatal(err)
	}
	w := &sinkWriter{h: make(http.Header)}
	run := func() {
		rb.off = 0
		w.n = 0
		handler(w, req)
	}
	run() // warm-up: grows pooled buffers and installs Content-Type
	if w.n == 0 {
		t.Fatalf("%s: warm-up wrote no body", path)
	}
	return testing.AllocsPerRun(500, run)
}

// The steady-state serving path — unary and batch — must not allocate:
// the pooled serveScratch owns every buffer, the snapshot view is one
// atomic load, and the codec parses and encodes in place. This is the
// runtime pin behind the //dialint:hotpath annotations in batchcodec.go
// and batch.go.
func TestServePathZeroAlloc(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping")
	}
	s, _ := resolveServer(t, Options{})

	if avg := serveAllocs(t, "/v1/assign-one",
		`{"coord":[25,35,1,0.5]}`, s.handleAssignOne); avg != 0 {
		t.Errorf("unary serve path allocates %.2f times per run, want 0", avg)
	}

	// A mid-sized batch: large enough that the scratch matrix and result
	// slices are real, small enough to keep the test fast.
	var body []byte
	body = append(body, `{"coords":[`...)
	for i := 0; i < 256; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, `[12.5,37.25,1,0.5]`...)
	}
	body = append(body, `]}`...)
	if avg := serveAllocs(t, "/v1/assign-batch", string(body), s.handleAssignBatch); avg != 0 {
		t.Errorf("batch serve path allocates %.2f times per run, want 0", avg)
	}
}

// TestServeChainAllocs pins what the request wrapper adds around the
// zero-alloc handlers, with the options cmd/capserver uses by default: a
// preregistered metrics registry, a flight recorder, a 30 s
// RequestTimeout and no tracer. The allocations are the labeled metric
// lookups, the requests-journal entry and the statusWriter; the handlers
// add none (TestServePathZeroAlloc).
func TestServeChainAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping")
	}
	reg := obs.NewRegistry()
	PreregisterMetrics(reg)
	s, _ := resolveServer(t, Options{
		Metrics:        reg,
		Flight:         obs.NewRecorder(0),
		RequestTimeout: 30 * time.Second,
	})
	const pinned = 20
	for _, c := range []struct{ path, body string }{
		{"/v1/assign-one", `{"coord":[25,35,1,0.5]}`},
		{"/v1/assign-batch", `{"coords":[` + strings.Repeat(`[12.5,37.25,1,0.5],`, 255) + `[12.5,37.25,1,0.5]]}`},
	} {
		if avg := serveAllocs(t, c.path, c.body, s.ServeHTTP); avg > pinned {
			t.Errorf("%s through ServeHTTP allocates %.2f times per request, want ≤ %d", c.path, avg, pinned)
		}
	}
}
