package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"diacap/internal/latency"
	"diacap/internal/live"
	"diacap/internal/obs"
	"diacap/internal/service"
	"diacap/internal/shard"
)

// The serving workloads share one plane: 4 shards, 32 servers and 4800
// clients, uncapacitated, with the default GreedyJoin strategy. The
// coordinates are the deployment and come from the fixed worldSeed, as
// a measured data set would; --seed varies what arrives at it (the
// order clients join in, the churn tape, the resolve queries).
const (
	planeShards  = 4
	planeServers = 32
	planeClients = 4800
	worldSeed    = 1
)

// plane is a built shard plane with the coordinates behind it.
type plane struct {
	*shard.Plane
	servers, clients []latency.Coord
	reg              *obs.Registry
	flight           *obs.Recorder
}

// buildPlane generates the coordinates, builds the plane with the
// metrics registry and flight recorder cmd/capserver wires, and joins
// the first joined clients of a seeded permutation, one Join at a time.
// st, if non-nil, times each part.
func buildPlane(seed int64, joined int, st *setupTimer) (*plane, error) {
	t := time.Now()
	cs, err := worldCoords()
	if err != nil {
		return nil, err
	}
	st.part("latency.coords_s", t)

	t = time.Now()
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	service.PreregisterMetrics(reg)
	live.PreregisterMetrics(reg)
	shard.Preregister(reg)
	flight := obs.NewRecorder(0)
	flight.SetDumpWriter(os.Stderr)
	p, err := shard.New(shard.Options{
		Shards:  planeShards,
		Servers: cs[:planeServers],
		Clients: cs[planeServers:],
		Metrics: reg,
		Flight:  flight,
	})
	if err != nil {
		return nil, err
	}
	st.part("shard.new_s", t)

	t = time.Now()
	ctx := context.Background()
	for _, c := range joinOrder(seed)[:joined] {
		if _, err := p.Join(ctx, c); err != nil {
			return nil, fmt.Errorf("initial join of client %d: %w", c, err)
		}
	}
	st.part("shard.join_all_s", t)
	return &plane{Plane: p, servers: cs[:planeServers], clients: cs[planeServers:], reg: reg, flight: flight}, nil
}

// worldCoords is the deployment: planeServers servers followed by
// planeClients clients.
func worldCoords() ([]latency.Coord, error) {
	return latency.GenerateCoords(latency.DefaultConfig(planeServers+planeClients), worldSeed)
}

// joinOrder is the seeded order in which clients first join.
func joinOrder(seed int64) []int {
	return rand.New(rand.NewSource(seed ^ 0x6a6f696e)).Perm(planeClients)
}

// defaultService is the service the way cmd/capserver builds it by
// default: metrics registry, shared always-on flight recorder, a 30 s
// request timeout, an info-level logger, no tracer and no admission.
func defaultService(p *plane) (*service.Server, error) {
	logger, err := obs.NewLogger(os.Stderr, "info")
	if err != nil {
		return nil, err
	}
	return service.New(service.Options{
		MaxNodes:       2048,
		RequestTimeout: 30 * time.Second,
		DrainTimeout:   10 * time.Second,
		Metrics:        p.reg,
		Logger:         logger,
		Flight:         p.flight,
		Shard:          p.Plane,
	}), nil
}

// bareService is the same plane behind no optional middleware: the
// baseline that service.chain_us is measured against.
func bareService(p *plane) *service.Server {
	return service.New(service.Options{Shard: p.Plane})
}

// reqIDHeader carries the client's request id in traced phases, so the
// server-side span can be matched to the client's.
const reqIDHeader = "X-Perfbench-Id"

// harness serves a handler on a loopback listener through a thin
// wrapper that, while tracing is on, records a span around the
// handler's ServeHTTP for every request carrying a request id.
type harness struct {
	next    http.Handler
	srv     *http.Server
	url     string
	done    chan error
	tracing atomic.Bool
	// spans[id] holds the server span of request id (start, end in
	// clock nanoseconds); written by the handler goroutine, read after
	// the phase's workers have returned.
	spans []serverSpan
}

type serverSpan struct{ start, end atomic.Int64 }

// listen starts serving h on 127.0.0.1 with the ReadHeaderTimeout that
// service.Serve uses.
func listen(h http.Handler) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &harness{next: h, done: make(chan error, 1), url: "http://" + ln.Addr().String()}
	hs.srv = &http.Server{Handler: hs, ReadHeaderTimeout: 10 * time.Second}
	go func() { hs.done <- hs.srv.Serve(ln) }()
	return hs, nil
}

func (hs *harness) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var v []string
	if hs.tracing.Load() {
		v = r.Header[reqIDHeader]
	}
	if len(v) != 1 {
		hs.next.ServeHTTP(w, r)
		return
	}
	start := now()
	hs.next.ServeHTTP(w, r)
	end := now()
	if id, err := strconv.Atoi(v[0]); err == nil && id >= 0 && id < len(hs.spans) {
		hs.spans[id].start.Store(start)
		hs.spans[id].end.Store(end)
	}
}

// startTracing arms server spans for request ids below capacity.
func (hs *harness) startTracing(capacity int) {
	hs.spans = make([]serverSpan, capacity)
	hs.tracing.Store(true)
}

func (hs *harness) stopTracing() { hs.tracing.Store(false) }

// close shuts the server down and waits for Serve to return.
func (hs *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.srv.Shutdown(ctx); err != nil {
		_ = hs.srv.Close()
		<-hs.done
		return err
	}
	if err := <-hs.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
