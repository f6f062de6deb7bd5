package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// newClient is a keep-alive client holding at most conns connections
// to the harness.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy:               nil,
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 30 * time.Second,
	}
}

// request is one pre-encoded request of a load pool.
type request struct {
	path string
	body []byte
	// check validates the response body of a 200.
	check func(resp []byte) bool
}

// phase is the outcome of one measured phase.
type phase struct {
	samples   []int64 // nanoseconds of every completed untraced op
	attempted int
	failed    int
	failures  []string
	cost      phaseCost
	// tracedSamples and spans come from the traced ops of a traced
	// phase. A served op is a client.request span with the server.serve
	// span as its child.
	tracedSamples []int64
	spans         spanLog
}

// traceSlice is the length of the alternating untraced and traced
// slices of a traced phase. The machine's speed drifts over seconds;
// alternating four times a second lets both kinds of op see the same
// machine, so that their p50s compare.
const traceSlice = 250 * time.Millisecond

// inTracedSlice reports whether an op issued e into a traced phase is
// traced.
func inTracedSlice(e time.Duration) bool { return (e/traceSlice)%2 == 1 }

// drive runs a closed loop of `workers` goroutines over one client.
// Worker w issues next(w, i) for i = 0, 1, ... until the deadline
// passes or next reports done. In a traced phase, the requests of every
// other slice carry a request id and get spans, up to the harness's
// span capacity. Every phase starts from a collected heap.
func drive(hs *harness, client *http.Client, workers int, d time.Duration, traced bool, next func(w, i int) (request, bool)) *phase {
	type workerOut struct {
		samples, tracedSamples []int64
		attempted, failed      int
		failures               []string
		spans                  []span // client spans; parent = request id
	}
	outs := make([]workerOut, workers)
	var ids atomic.Int64
	runtime.GC()
	start := readCounters()
	deadline := start.wall.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := &outs[w]
			var buf bytes.Buffer
			for i := 0; time.Now().Before(deadline); i++ {
				rq, ok := next(w, i)
				if !ok {
					return
				}
				id := -1
				if traced && inTracedSlice(time.Since(start.wall)) {
					if n := int(ids.Add(1) - 1); n < len(hs.spans) {
						id = n
					}
				}
				out.attempted++
				t0 := now()
				err := roundTrip(client, hs.url, rq, id, &buf)
				t1 := now()
				switch {
				case err != nil:
					out.failed++
					if len(out.failures) < 5 {
						out.failures = append(out.failures, err.Error())
					}
				case id >= 0:
					out.tracedSamples = append(out.tracedSamples, t1-t0)
					out.spans = append(out.spans, span{name: "client.request", parent: id, start: t0, end: t1})
				default:
					out.samples = append(out.samples, t1-t0)
				}
			}
		}(w)
	}
	wg.Wait()
	ph := &phase{cost: since(start)}
	for _, o := range outs {
		ph.samples = append(ph.samples, o.samples...)
		ph.tracedSamples = append(ph.tracedSamples, o.tracedSamples...)
		ph.attempted += o.attempted
		ph.failed += o.failed
		ph.failures = append(ph.failures, o.failures...)
		for _, s := range o.spans {
			ss := &hs.spans[s.parent]
			root := ph.spans.add(s.name, -1, s.start, s.end)
			ph.spans.add("server.serve", root, ss.start.Load(), ss.end.Load())
		}
	}
	return ph
}

// roundTrip POSTs one request and validates the response: status 200
// and a body the request's check accepts. The body is read into buf;
// nothing is decoded.
func roundTrip(client *http.Client, base string, rq request, id int, buf *bytes.Buffer) error {
	req, err := http.NewRequest(http.MethodPost, base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if id >= 0 {
		req.Header[reqIDHeader] = []string{strconv.Itoa(id)}
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s: reading response: %w", rq.path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", rq.path, resp.StatusCode, buf.Bytes())
	}
	if !rq.check(buf.Bytes()) {
		return fmt.Errorf("%s: unexpected response %.200s", rq.path, buf.Bytes())
	}
	return nil
}

// record stores a phase's metrics. Latency comes from the untraced
// ops only: p50 and the p99 diagnostic over every sample, and the
// sample count. Throughput, CPU per op and the runtime counters cover
// every op of the phase. A traced phase adds the traced p50 over the
// untraced one and the self time of each span name.
func (ph *phase) record(r *result) {
	ms := durations(ph.samples, time.Millisecond)
	ops := len(ph.samples) + len(ph.tracedSamples)
	r.values["p50_ms"] = percentile(ms, 0.5)
	r.values["p99_ms"] = percentile(ms, 0.99)
	r.values["samples"] = float64(len(ms))
	if ph.cost.wall > 0 {
		r.values["ops_per_s"] = float64(ops) / ph.cost.wall.Seconds()
	}
	if ops > 0 {
		r.values["cpu_us_per_op"] = float64(ph.cost.cpu) / float64(time.Microsecond) / float64(ops)
	}
	ph.cost.record(r, ops)
	r.values["driver.p99_ms"] = r.values["p99_ms"]
	r.values["driver.samples"] = r.values["samples"]
	r.values["driver.ops_per_s"] = r.values["ops_per_s"]
	if p50 := r.values["p50_ms"]; p50 > 0 && len(ph.tracedSamples) > 0 {
		r.values["trace.overhead_share"] = percentile(durations(ph.tracedSamples, time.Millisecond), 0.5) / p50
	}
	if len(ph.spans.spans) > 0 {
		self := ph.spans.selfTimes()
		r.values["http.self_us"] = median(self["client.request"]) / 1e3
		r.values["service.serve_us"] = median(self["server.serve"]) / 1e3
	}
	r.attempted += ph.attempted
	r.failed += ph.failed
	for _, f := range ph.failures {
		r.check(false, "%s", f)
	}
}
