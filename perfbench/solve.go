package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"diacap/internal/assign"
	"diacap/internal/core"
	"diacap/internal/latency"
	"diacap/internal/placement"
)

// solve-meridian: the paper's evaluation path, in-process. Setup builds
// a Meridian-sized synthetic matrix and places the servers with
// K-center-B; one operation builds a fresh instance, computes the lower
// bound and runs the four heuristics uncapacitated and capacitated.
// The matrix is the data set and comes from the fixed meridianSeed;
// --seed orders the clients handed to the solvers.
const (
	solveServers = 80
	meridianSeed = 1
)

// solveKeys names the eight solves of one operation, in run order.
var solveKeys = []string{"ns", "lfb", "greedy", "dg", "ns_cap", "lfb_cap", "greedy_cap", "dg_cap"}

type solveSetup struct {
	m       latency.Matrix
	servers []int
	clients []int
	caps    core.Capacities
}

func runSolve(cfg config) (*result, error) {
	r := newResult(cfg)
	var st solveSetup
	timer := newSetupTimer()
	for i := 0; i < cfg.setupRepeats; i++ {
		st = solveSetup{} // release the previous matrix before the GC
		timer.start()
		t := time.Now()
		st.m = latency.MeridianLike(meridianSeed)
		timer.part("latency.matrix_s", t)
		t = time.Now()
		servers, err := placement.PlaceKCenterB(st.m, solveServers)
		if err != nil {
			return nil, err
		}
		timer.part("placement.kcenter_s", t)
		timer.stop()
		st.servers = servers
	}
	timer.record(r)
	st.clients = rand.New(rand.NewSource(cfg.seed)).Perm(st.m.Len())
	st.caps = core.UniformCapacities(solveServers, int(math.Ceil(1.2*float64(len(st.clients))/solveServers)))
	r.values["heap_mb"] = liveHeapMB()

	// The warm-up operation fixes the reference D of every solve; every
	// measured operation must reproduce them bit for bit.
	ref, err := solveOp(r, &st, nil, 0, nil)
	if err != nil {
		return nil, err
	}
	var dSum, normSum float64
	for i, key := range solveKeys {
		dSum += ref.d[i]
		norm := ref.d[i] / ref.lb
		normSum += norm
		r.values["assign."+key+"_d_norm"] = norm
	}
	r.values["d_ms"] = dSum / float64(len(solveKeys))
	r.values["d_norm"] = normSum / float64(len(solveKeys))

	ph := solvePhase(r, &st, cfg.window(), ref, cfg.trace)
	ph.record(r)
	if cfg.trace {
		self := ph.spans.selfTimes()
		ms := func(name string) float64 { return median(self[name]) / 1e6 }
		r.values["core.instance_ms"] = ms("core.instance")
		r.values["core.lower_bound_ms"] = ms("core.lower_bound")
		r.values["core.maxpath_ms"] = median(ph.spans.perParent("core.maxpath")) / 1e6
		for _, key := range solveKeys {
			r.values["assign."+key+"_ms"] = ms("assign." + key)
		}
	}
	return r, nil
}

// solveResult is one operation's output.
type solveResult struct {
	lb float64
	d  []float64
}

// solvePhase runs operations until the window has passed: at least
// one, and in a traced phase at least one traced. Each sample is the
// operation's wall time. Wall and CPU time are
// charged per operation, so that the output checks between operations
// are not. In a traced phase every other operation records spans.
func solvePhase(r *result, st *solveSetup, d time.Duration, ref *solveResult, traced bool) *phase {
	ph := &phase{}
	runtime.GC()
	start := readCounters()
	var cpu, wall time.Duration
	deadline := start.wall.Add(d)
	minOps := 1
	if traced {
		minOps = 2
	}
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		var log *spanLog
		if traced && i%2 == 1 {
			log = &ph.spans
		}
		ph.attempted++
		c0, t0 := processCPU(), now()
		_, err := solveOp(r, st, log, t0, ref)
		t1, c1 := now(), processCPU()
		if err != nil {
			ph.failed++
			ph.failures = append(ph.failures, err.Error())
			continue
		}
		cpu += c1 - c0
		wall += time.Duration(t1 - t0)
		if log != nil {
			ph.tracedSamples = append(ph.tracedSamples, t1-t0)
		} else {
			ph.samples = append(ph.samples, t1-t0)
		}
	}
	ph.cost = since(start)
	ph.cost.cpu, ph.cost.wall = cpu, wall
	return ph
}

// solveOp is one operation: a fresh instance over the matrix, its lower
// bound, and the eight solves, each followed by its D. With a log, every
// call is a child span of one solve.op span starting at t0. The output
// checks run after the timed calls.
func solveOp(r *result, st *solveSetup, log *spanLog, t0 int64, ref *solveResult) (*solveResult, error) {
	var spans []span
	timed := func(name string, fn func()) {
		if log == nil {
			fn()
			return
		}
		s := now()
		fn()
		spans = append(spans, span{name: name, start: s, end: now()})
	}
	var in *core.Instance
	var err error
	timed("core.instance", func() { in, err = core.NewInstanceTrusted(st.m, st.servers, st.clients) })
	if err != nil {
		return nil, err
	}
	res := &solveResult{d: make([]float64, len(solveKeys))}
	timed("core.lower_bound", func() { res.lb = in.LowerBound() })
	as := make([]core.Assignment, len(solveKeys))
	algs := assign.All()
	for i, key := range solveKeys {
		alg := algs[i%len(algs)]
		var caps core.Capacities
		if i >= len(algs) {
			caps = st.caps
		}
		timed("assign."+key, func() { as[i], err = alg.Assign(in, caps) })
		if err != nil {
			return nil, err
		}
		timed("core.maxpath", func() { res.d[i] = in.MaxInteractionPath(as[i]) })
	}
	if log != nil {
		root := log.add("solve.op", -1, t0, now())
		for _, s := range spans {
			log.add(s.name, root, s.start, s.end)
		}
	}

	for i, key := range solveKeys {
		a := as[i]
		err := in.Validate(a)
		if err == nil && i >= len(algs) {
			err = in.CheckCapacities(a, st.caps)
		}
		r.check(err == nil, "%s: %v", key, err)
		// The eccentricity form adds the same three terms as the pair
		// walk, but in server order rather than client order, so the two
		// agree to rounding: within the 1e-9 that core's own tests allow.
		naive := in.MaxPathNaive(a)
		r.check(math.Abs(res.d[i]-naive) <= 1e-9, "%s: MaxInteractionPath %v, MaxPathNaive %v", key, res.d[i], naive)
		if ref != nil {
			r.check(res.d[i] == ref.d[i], "%s: D %v, first operation %v", key, res.d[i], ref.d[i])
		}
	}
	r.check(res.lb > 0, "lower bound is %v", res.lb)
	return res, nil
}
