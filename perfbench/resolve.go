package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"testing"

	"diacap/internal/latency"
	"diacap/internal/perfkit"
	"diacap/internal/shard"
)

// Resolve workloads: 2 closed-loop keep-alive connections POST
// pre-encoded bodies to a fully joined, static plane.
const (
	resolveConns = 2
	batchSize    = 256 // coordinates per /v1/assign-batch body
	batchPool    = 64  // distinct batch bodies
	unaryPool    = 512 // distinct /v1/assign-one bodies
)

// resolveBody is one pooled request with the response it must get.
type resolveBody struct {
	coords []latency.Coord
	req    request
}

func runResolve(cfg config, unary bool) (*result, error) {
	r := newResult(cfg)
	sp, err := repeatServePlane(r, cfg, planeClients)
	if err != nil {
		return nil, err
	}
	defer sp.hs.close()
	p, hs := sp.plane, sp.hs

	pool, err := resolvePool(p, cfg.seed, unary)
	if err != nil {
		return nil, err
	}
	client := newClient(resolveConns)
	defer client.CloseIdleConnections()
	var buf bytes.Buffer
	for i, b := range pool {
		err := roundTrip(client, hs.url, b.req, -1, &buf)
		r.check(err == nil, "body %d over the wire: %v", i, err)
	}
	epoch := p.Epoch()
	next := func(w, i int) (request, bool) {
		return pool[(w+i*resolveConns)%len(pool)].req, true
	}
	warm := drive(hs, client, resolveConns, cfg.warmup(), false, next)
	r.check(warm.failed == 0, "warm-up: %d of %d requests failed: %v", warm.failed, warm.attempted, warm.failures)

	if cfg.trace {
		// Room for every request of the window at twice the warm-up rate.
		hs.startTracing(2*warm.attempted*int(cfg.window()/cfg.warmup()) + 4096)
	}
	ph := drive(hs, client, resolveConns, cfg.window(), cfg.trace, next)
	hs.stopTracing()
	ph.record(r)
	if cfg.trace {
		resolvePasses(r, p, hs.next, pool, unary)
	}
	r.check(p.Epoch() == epoch, "static plane moved from epoch %d to %d", epoch, p.Epoch())
	planeQuality(r, p)
	return r, nil
}

// resolvePool builds the request bodies from a query set with its own
// seed and renders each body's expected response from an in-process
// ResolveView.ResolveInto at the plane's current epoch, in the
// service's response encoding.
func resolvePool(p *plane, seed int64, unary bool) ([]resolveBody, error) {
	n, per, path := batchPool*batchSize, batchSize, "/v1/assign-batch"
	if unary {
		n, per, path = unaryPool, 1, "/v1/assign-one"
	}
	qs, err := latency.GenerateCoords(latency.DefaultConfig(n), seed^0x71756572)
	if err != nil {
		return nil, err
	}
	view := p.View()
	var cs perfkit.FlatMatrix
	pool := make([]resolveBody, n/per)
	for i := range pool {
		coords := qs[i*per : (i+1)*per]
		out := make([]int, per)
		lat := make([]float64, per)
		view.ResolveInto(coords, &cs, out, lat)
		want := encodeResolve(view.Snap, out, lat, unary)
		pool[i] = resolveBody{coords: coords, req: request{
			path:  path,
			body:  encodeQuery(coords, unary),
			check: func(got []byte) bool { return bytes.Equal(got, want) },
		}}
	}
	return pool, nil
}

// encodeQuery renders a request body with every coordinate as a
// round-trip exact [x,y,z,h] array.
func encodeQuery(coords []latency.Coord, unary bool) []byte {
	var b []byte
	appendCoord := func(c latency.Coord) {
		b = append(b, '[')
		for j, v := range [4]float64{c.X, c.Y, c.Z, c.H} {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	if unary {
		b = append(b, `{"coord":`...)
		appendCoord(coords[0])
		return append(b, '}')
	}
	b = append(b, `{"coords":[`...)
	for i, c := range coords {
		if i > 0 {
			b = append(b, ',')
		}
		appendCoord(c)
	}
	return append(b, "]}"...)
}

// encodeResolve renders the response the serving endpoints must return
// for a resolution, byte for byte.
func encodeResolve(s *shard.Snapshot, out []int, lat []float64, unary bool) []byte {
	f := func(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }
	b := fmt.Appendf(nil, `{"epoch":%d,"d":`, s.Epoch)
	b = f(b, s.D)
	b = append(b, `,"certifiedD":`...)
	b = f(b, s.CertifiedD)
	if unary {
		b = fmt.Appendf(b, `,"server":%d,"latencyMs":`, out[0])
		b = f(b, lat[0])
		return append(b, "}\n"...)
	}
	b = append(b, `,"servers":[`...)
	for i, k := range out {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(k), 10)
	}
	b = append(b, `],"latencyMs":[`...)
	for i, v := range lat {
		if i > 0 {
			b = append(b, ',')
		}
		b = f(b, v)
	}
	return append(b, "]}\n"...)
}

// resolvePasses times the layers under a resolve request on the same
// bodies, each in a pass of its own: the snapshot view, ResolveInto
// and its two parts (the distance fill and the nearest-server kernel),
// and ServeHTTP under the capserver-default and the bare options.
func resolvePasses(r *result, p *plane, served http.Handler, pool []resolveBody, unary bool) {
	// Sub-microsecond calls are repeated inside their span so the
	// clock reads do not dominate them.
	const viewCalls = 1000
	inner, rounds := 1, 20
	if unary {
		inner, rounds = 64, 4
	}
	var log spanLog
	view := p.View()
	var cs perfkit.FlatMatrix
	per := len(pool[0].coords)
	out := make([]int, per)
	lat := make([]float64, per)
	def := newInproc(served, pool[0].req.path)
	bare := newInproc(bareService(p), pool[0].req.path)
	for round := 0; round < rounds; round++ {
		for _, b := range pool {
			log.timed("shard.view", -1, func() {
				for j := 0; j < viewCalls; j++ {
					view = p.View()
				}
			})
			log.timed("shard.resolve", -1, func() {
				for j := 0; j < inner; j++ {
					view.ResolveInto(b.coords, &cs, out, lat)
				}
			})
			log.timed("shard.fill", -1, func() {
				for j := 0; j < inner; j++ {
					view.FillDistances(b.coords, &cs)
				}
			})
			log.timed("perfkit.nearest", -1, func() {
				for j := 0; j < inner; j++ {
					perfkit.NearestInto(&cs, out)
				}
			})
			for _, svc := range []struct {
				name string
				h    *inproc
			}{{"service.default", def}, {"service.bare", bare}} {
				svc.h.prepare(b.req.body)
				log.timed(svc.name, -1, svc.h.serve)
				r.check(svc.h.ok(b.req.check), "%s: in-process response differs", svc.name)
			}
		}
	}
	self := log.selfTimes()
	us := func(name string, calls int) float64 { return median(self[name]) / 1e3 / float64(calls) }
	r.values["shard.view_ns"] = us("shard.view", viewCalls) * 1e3
	r.values["shard.resolve_us"] = us("shard.resolve", inner)
	r.values["shard.fill_us"] = us("shard.fill", inner)
	r.values["perfkit.nearest_us"] = us("perfkit.nearest", inner)
	r.values["service.chain_us"] = us("service.default", 1) - us("service.bare", 1)
	r.values["service.codec_us"] = us("service.bare", 1) - r.values["shard.resolve_us"]

	i := 0
	r.values["service.allocs_per_op"] = testing.AllocsPerRun(200, func() {
		def.prepare(pool[i%len(pool)].req.body)
		i++
		def.serve()
	})
}
