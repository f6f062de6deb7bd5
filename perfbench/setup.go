package main

import (
	"runtime"
	"time"
)

// setupTimer times the repeated builds of a workload's state. Every
// build starts from a collected heap, so no build pays for the garbage
// of the one before; the recorded times are medians over the builds.
// A nil *setupTimer times nothing.
type setupTimer struct {
	t0    time.Time
	total []float64
	parts map[string][]float64
}

func newSetupTimer() *setupTimer { return &setupTimer{parts: make(map[string][]float64)} }

func (s *setupTimer) start() {
	runtime.GC()
	s.t0 = time.Now()
}

// part records the named part of the current build that began at t.
func (s *setupTimer) part(name string, t time.Time) {
	if s != nil {
		s.parts[name] = append(s.parts[name], time.Since(t).Seconds())
	}
}

func (s *setupTimer) stop() { s.total = append(s.total, time.Since(s.t0).Seconds()) }

// record stores setup_s and the per-part medians.
func (s *setupTimer) record(r *result) {
	r.values["setup_s"] = median(s.total)
	for name, v := range s.parts {
		r.values[name] = median(v)
	}
}
