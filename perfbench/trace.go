package main

import (
	"cmp"
	"slices"
	"time"
)

// clockZero anchors span timestamps: every span stores nanoseconds
// since it on the monotonic clock.
var clockZero = time.Now()

func now() int64 { return int64(time.Since(clockZero)) }

// span is one timed call at a layer boundary. parent indexes the span
// that caused it in the same spanLog (-1 for a root).
type span struct {
	name       string
	parent     int
	start, end int64
}

// spanLog keeps spans in memory for the whole run; they are reduced to
// metrics when the run ends. A spanLog is owned by one goroutine.
type spanLog struct {
	spans []span
}

// add appends a finished span and returns its index.
func (l *spanLog) add(name string, parent int, start, end int64) int {
	l.spans = append(l.spans, span{name: name, parent: parent, start: start, end: end})
	return len(l.spans) - 1
}

// timed runs fn inside a span and returns the span's index.
func (l *spanLog) timed(name string, parent int, fn func()) int {
	start := now()
	fn()
	return l.add(name, parent, start, now())
}

// selfTimes returns, per span name, the self time of every span of
// that name in nanoseconds: its duration minus the part of its
// interval that its children cover.
func (l *spanLog) selfTimes() map[string][]float64 {
	children := make(map[int][][2]int64)
	for _, s := range l.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[string][]float64)
	for i, s := range l.spans {
		self := s.end - s.start - covered(s.start, s.end, children[i])
		out[s.name] = append(out[s.name], float64(self))
	}
	return out
}

// covered is the length of the union of intervals, clipped to
// [lo, hi].
func covered(lo, hi int64, intervals [][2]int64) int64 {
	slices.SortFunc(intervals, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo
	for _, iv := range intervals {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// perParent sums the durations of the spans named name under each
// parent, for layers called several times per operation.
func (l *spanLog) perParent(name string) []float64 {
	sums := make(map[int]float64)
	var order []int
	for _, s := range l.spans {
		if s.name != name {
			continue
		}
		if _, ok := sums[s.parent]; !ok {
			order = append(order, s.parent)
		}
		sums[s.parent] += float64(s.end - s.start)
	}
	out := make([]float64, len(order))
	for i, p := range order {
		out[i] = sums[p]
	}
	return out
}
