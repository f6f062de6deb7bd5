package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"diacap/internal/core"
	"diacap/internal/shard"
)

// Churn: one closed-loop connection replays a seeded join/leave/migrate
// tape through POST /v1/shard/assign on a plane that starts 75% joined.
// The tape has a fixed length per second of window, so a run always
// ends in the same state and d_ms is exact.
const (
	churnJoined = planeClients * 3 / 4
	// tapePerSecond is the number of tape operations per second of
	// --seconds, sized so that replaying the tape takes most of the
	// window on a 2-vCPU machine.
	tapePerSecond = 2500
	// replayLimit bounds a tape replay; a replay cut short fails the run.
	replayLimit = 150 * time.Second
)

// tapeOp is one plane mutation.
type tapeOp struct {
	op     string // "join", "leave" or "migrate"
	client int
	target int // migrate target server
}

// genTape draws n operations, one third each of joins, leaves and
// migrations. A join takes a random inactive client and a leave a
// random active one. Joins and leaves come at one rate, which keeps the
// active share near its start, as in the steady state of
// dynamic.GenerateChurn, where every session that starts also ends. A
// migrate moves a random active client to nearest[client], the server
// a client that re-resolves its own coordinate would name. When the
// client is already there, the move changes nothing but still
// publishes an epoch. LEDGER.md gives the reasons for this mix.
func genTape(seed int64, n int, nearest []int) []tapeOp {
	rng := rand.New(rand.NewSource(seed ^ 0x74617065))
	order := joinOrder(seed)
	active := append([]int(nil), order[:churnJoined]...)
	inactive := append([]int(nil), order[churnJoined:]...)
	take := func(s []int) ([]int, int) {
		i := rng.Intn(len(s))
		c := s[i]
		s[i] = s[len(s)-1]
		return s[:len(s)-1], c
	}
	tape := make([]tapeOp, n)
	for i := range tape {
		var c int
		switch k := rng.Intn(3); {
		case k == 0 && len(inactive) > 0 || len(active) == 0:
			inactive, c = take(inactive)
			active = append(active, c)
			tape[i] = tapeOp{op: "join", client: c}
		case k == 1:
			active, c = take(active)
			inactive = append(inactive, c)
			tape[i] = tapeOp{op: "leave", client: c}
		default:
			c = active[rng.Intn(len(active))]
			tape[i] = tapeOp{op: "migrate", client: c, target: nearest[c]}
		}
	}
	return tape
}

// nearestServers is the nearest server of every client of the world
// by predicted latency, ties toward the lower index.
func nearestServers() ([]int, error) {
	cs, err := worldCoords()
	if err != nil {
		return nil, err
	}
	servers, clients := cs[:planeServers], cs[planeServers:]
	nearest := make([]int, len(clients))
	for c, x := range clients {
		best := math.Inf(1)
		for k, s := range servers {
			if d := clientServer(s, x); d < best {
				best, nearest[c] = d, k
			}
		}
	}
	return nearest, nil
}

func (t tapeOp) body() []byte {
	if t.op == "migrate" {
		return fmt.Appendf(nil, `{"op":"migrate","client":%d,"server":%d}`, t.client, t.target)
	}
	return fmt.Appendf(nil, `{"op":%q,"client":%d}`, t.op, t.client)
}

// apply runs the operation directly on the plane.
func (t tapeOp) apply(p *shard.Plane) (shard.OpResult, error) {
	ctx := context.Background()
	switch t.op {
	case "join":
		return p.Join(ctx, t.client)
	case "leave":
		return p.Leave(ctx, t.client)
	}
	return p.Migrate(ctx, t.client, t.target)
}

// epochPrefix is how a 200 from /v1/shard/assign that published epoch
// e starts.
func epochPrefix(e uint64) []byte { return strconv.AppendUint([]byte(`{"epoch":`), e, 10) }

// servedPlane is a plane behind the capserver-default service on a
// loopback listener.
type servedPlane struct {
	*plane
	hs *harness
}

// repeatServePlane builds and serves the plane cfg.setupRepeats times,
// keeping the last, and records setup_s, its parts and heap_mb.
func repeatServePlane(r *result, cfg config, joined int) (*servedPlane, error) {
	var sp *servedPlane
	st := newSetupTimer()
	for i := 0; i < cfg.setupRepeats; i++ {
		if sp != nil {
			if err := sp.hs.close(); err != nil {
				return nil, err
			}
			sp = nil // release the previous plane before the GC
		}
		st.start()
		var err error
		if sp, err = servePlane(cfg.seed, joined, st); err != nil {
			return nil, err
		}
		st.stop()
	}
	st.record(r)
	r.values["heap_mb"] = liveHeapMB()
	return sp, nil
}

// servePlane builds a plane with the first joined clients of the
// seeded order and serves it on a loopback listener.
func servePlane(seed int64, joined int, st *setupTimer) (*servedPlane, error) {
	p, err := buildPlane(seed, joined, st)
	if err != nil {
		return nil, err
	}
	svc, err := defaultService(p)
	if err != nil {
		return nil, err
	}
	hs, err := listen(svc)
	if err != nil {
		return nil, err
	}
	return &servedPlane{plane: p, hs: hs}, nil
}

func runChurn(cfg config) (*result, error) {
	r := newResult(cfg)
	nearest, err := nearestServers()
	if err != nil {
		return nil, err
	}
	tape := genTape(cfg.seed, max(1, int(cfg.seconds*tapePerSecond)), nearest)
	sp, err := repeatServePlane(r, cfg, churnJoined)
	if err != nil {
		return nil, err
	}

	client := newClient(1)
	defer client.CloseIdleConnections()
	if cfg.trace {
		sp.hs.startTracing(len(tape))
	}
	ph, err := replayOverHTTP(r, cfg, sp, client, tape, cfg.trace)
	if err != nil {
		return nil, err
	}
	ph.record(r)
	if err := sp.hs.close(); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return r, nil
	}
	return r, churnPasses(r, cfg.seed, tape)
}

// replayOverHTTP warms the connection with no-op migrations, replays
// the tape once through POST /v1/shard/assign, and checks that every
// write returned 200 with the next epoch, that the plane advanced by
// exactly the tape length, and that the published D matches a
// recomputation. It records d_ms and d_norm.
func replayOverHTTP(r *result, cfg config, sp *servedPlane, client *http.Client, tape []tapeOp, traced bool) (*phase, error) {
	snap := sp.Current()
	var noop []request
	for c, k := range snap.Assignment {
		if k != core.Unassigned && len(noop) < 512 {
			noop = append(noop, request{
				path:  "/v1/shard/assign",
				body:  tapeOp{op: "migrate", client: c, target: k}.body(),
				check: func(b []byte) bool { return bytes.HasPrefix(b, []byte(`{"epoch":`)) },
			})
		}
	}
	warm := drive(sp.hs, client, 1, cfg.warmup(), false, func(_, i int) (request, bool) {
		return noop[i%len(noop)], true
	})
	r.check(warm.failed == 0, "warm-up: %d of %d writes failed: %v", warm.failed, warm.attempted, warm.failures)
	if sp.Current().D != snap.D {
		return nil, fmt.Errorf("no-op migrations moved D from %v to %v", snap.D, sp.Current().D)
	}

	start := sp.Epoch()
	reqs := make([]request, len(tape))
	for i, op := range tape {
		want := epochPrefix(start + uint64(i) + 1)
		reqs[i] = request{
			path:  "/v1/shard/assign",
			body:  op.body(),
			check: func(b []byte) bool { return len(b) > len(want) && bytes.HasPrefix(b, want) && b[len(want)] == ',' },
		}
	}
	ph := drive(sp.hs, client, 1, replayLimit, traced, func(_, i int) (request, bool) {
		if i >= len(reqs) {
			return request{}, false
		}
		return reqs[i], true
	})
	r.check(ph.attempted == len(tape), "replayed %d of %d tape operations within %v", ph.attempted, len(tape), replayLimit)
	end := sp.Epoch()
	r.check(end == start+uint64(len(tape)), "epoch went from %d to %d over a tape of %d", start, end, len(tape))
	planeQuality(r, sp.plane)
	return ph, nil
}

// churnPasses replays the tape in-process on identically seeded fresh
// planes: directly through the Plane calls (per-operation time, the
// evaluator's work counters and the epochs published), then through
// ServeHTTP under the bare and the capserver-default options. A last
// pass times publish alone with no-op migrations.
func churnPasses(r *result, seed int64, tape []tapeOp) error {
	var log spanLog
	p, err := buildPlane(seed, churnJoined, nil)
	if err != nil {
		return err
	}
	stats0, epoch0 := p.EvaluatorStats(), p.Epoch()
	for _, op := range tape {
		var opErr error
		log.timed("shard."+op.op, -1, func() { _, opErr = op.apply(p.Plane) })
		if opErr != nil {
			r.check(false, "direct %s of client %d: %v", op.op, op.client, opErr)
			return nil
		}
	}
	n := float64(len(tape))
	stats := p.EvaluatorStats()
	r.values["shard.epochs_per_op"] = float64(p.Epoch()-epoch0) / n
	r.values["core.heap_ops_per_op"] = float64(stats.HeapOps-stats0.HeapOps) / n
	r.values["core.pair_touches_per_op"] = float64(stats.PairTouches-stats0.PairTouches) / n
	r.values["core.pair_rescans_per_op"] = float64(stats.PairRescans-stats0.PairRescans) / n
	r.values["core.ecc_scans_per_op"] = float64(stats.EccScans-stats0.EccScans) / n
	r.values["core.recomputes"] = float64(stats.Recomputes - stats0.Recomputes)

	// Publish alone: moving a client to its own server changes nothing
	// but still publishes one epoch.
	snap := p.Current()
	ctx := context.Background()
	for c, k := range snap.Assignment {
		if k == core.Unassigned {
			continue
		}
		var opErr error
		log.timed("shard.publish", -1, func() { _, opErr = p.Migrate(ctx, c, k) })
		if opErr != nil {
			r.check(false, "no-op migrate of client %d: %v", c, opErr)
			return nil
		}
	}

	self := log.selfTimes()
	var all []float64
	for _, op := range []string{"join", "leave", "migrate"} {
		all = append(all, self["shard."+op]...)
		r.values["shard."+op+"_us"] = median(self["shard."+op]) / 1e3
	}
	r.values["shard.op_us"] = median(all) / 1e3
	r.values["shard.publish_us"] = median(self["shard.publish"]) / 1e3

	bare, _, err := serveTape(r, seed, tape, "service.bare", false)
	if err != nil {
		return err
	}
	def, allocs, err := serveTape(r, seed, tape, "service.default", true)
	if err != nil {
		return err
	}
	r.values["service.json_us"] = median(bare)/1e3 - r.values["shard.op_us"]
	r.values["service.chain_us"] = (median(def) - median(bare)) / 1e3
	r.values["service.allocs_per_op"] = float64(allocs) / n
	return nil
}

// serveTape replays the tape through ServeHTTP on a fresh plane behind
// the capserver-default service (def) or the bare one, and returns the
// time of every call and the heap allocations of the whole replay.
func serveTape(r *result, seed int64, tape []tapeOp, name string, def bool) (self []float64, allocs uint64, err error) {
	p, err := buildPlane(seed, churnJoined, nil)
	if err != nil {
		return nil, 0, err
	}
	var h http.Handler = bareService(p)
	if def {
		if h, err = defaultService(p); err != nil {
			return nil, 0, err
		}
	}
	ip := newInproc(h, "/v1/shard/assign")
	bodies := make([][]byte, len(tape))
	for i, op := range tape {
		bodies[i] = op.body()
	}
	var log spanLog
	log.spans = make([]span, 0, len(tape))
	serve := ip.serve
	start := readCounters()
	for i := range tape {
		ip.prepare(bodies[i])
		log.timed(name, -1, serve)
		if ip.w.code != http.StatusOK {
			r.check(false, "%s: %s of client %d: status %d: %s", name, tape[i].op, tape[i].client, ip.w.code, ip.w.buf.Bytes())
			return nil, 0, nil
		}
	}
	return log.selfTimes()[name], since(start).allocObjects, nil
}
