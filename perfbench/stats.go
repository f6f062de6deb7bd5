package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// percentile returns the nearest-rank q-quantile of samples: the
// smallest sample with at least a q share of all samples at or below
// it. Every returned value is a sample that was measured, never an
// interpolation between buckets. samples is sorted in place; an empty
// slice returns 0.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	rank := int(math.Ceil(q * float64(len(samples))))
	return samples[min(max(rank, 1), len(samples))-1]
}

// median is percentile(samples, 0.5) on a copy, leaving samples as is.
func median(samples []float64) float64 {
	return percentile(slices.Clone(samples), 0.5)
}

// durations converts nanosecond samples to the given unit.
func durations(ns []int64, unit time.Duration) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / float64(unit)
	}
	return out
}

// counters is a point-in-time reading of the process-wide counters a
// measured phase is charged with: CPU time from the kernel, and
// allocation, GC and CPU-class counts from runtime/metrics.
type counters struct {
	wall         time.Time
	cpu          time.Duration // user + system, from getrusage
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
	gcCPU        float64 // seconds, runtime estimate
	busyCPU      float64 // seconds, runtime estimate (total − idle)
}

var counterNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readCounters() counters {
	s := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return counters{
		wall:         time.Now(),
		cpu:          processCPU(),
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		busyCPU:      s[4].Value.Float64() - s[5].Value.Float64(),
	}
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phaseCost is the difference of two counter readings.
type phaseCost struct {
	wall, cpu    time.Duration
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
	gcCPU        float64
	busyCPU      float64
}

func since(start counters) phaseCost {
	end := readCounters()
	return phaseCost{
		wall:         end.wall.Sub(start.wall),
		cpu:          end.cpu - start.cpu,
		allocBytes:   end.allocBytes - start.allocBytes,
		allocObjects: end.allocObjects - start.allocObjects,
		gcCycles:     end.gcCycles - start.gcCycles,
		gcCPU:        end.gcCPU - start.gcCPU,
		busyCPU:      end.busyCPU - start.busyCPU,
	}
}

// record stores the runtime per-layer metrics of a phase that
// completed ops operations.
func (c phaseCost) record(r *result, ops int) {
	if ops <= 0 {
		return
	}
	r.values["runtime.alloc_kb_per_op"] = float64(c.allocBytes) / 1024 / float64(ops)
	r.values["runtime.gc_cycles_per_kop"] = float64(c.gcCycles) * 1000 / float64(ops)
	if c.busyCPU > 0 {
		r.values["runtime.gc_cpu_share"] = c.gcCPU / c.busyCPU
	}
	if c.wall > 0 {
		r.values["runtime.cpu_over_wall"] = c.cpu.Seconds() / c.wall.Seconds()
	}
}

// liveHeapMB forces two GC cycles and returns the live heap in MB
// (10⁶ bytes).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}
