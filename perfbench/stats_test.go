package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		samples []float64
		q, want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.5, 7},
		{[]float64{7}, 0.99, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 3, 2, 1}, 0.5, 2}, // lower middle: no interpolation
		{[]float64{1, 2, 3, 4}, 0.75, 3},
		{[]float64{1, 2, 3, 4}, 1, 4},
		{[]float64{1, 2, 3, 4}, 0, 1},
	} {
		if got := percentile(append([]float64(nil), tc.samples...), tc.q); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.samples, tc.q, got, tc.want)
		}
	}
	// p99 of 1..1000 is the 990th sample; of 1..100 the 99th.
	for _, n := range []int{100, 1000} {
		s := make([]float64, n)
		for i := range s {
			s[n-1-i] = float64(i + 1)
		}
		if got, want := percentile(s, 0.99), float64(n*99/100); got != want {
			t.Errorf("p99 of 1..%d = %v, want %v", n, got, want)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	var l spanLog
	root := l.add("root", -1, 0, 100)
	l.add("child", root, 10, 30)
	l.add("child", root, 20, 40)  // overlaps the first: 10..40 covered once
	l.add("child", root, 90, 120) // clipped to the root's end
	self := l.selfTimes()
	if got := self["root"][0]; got != 100-30-10 {
		t.Errorf("root self time %v, want 60", got)
	}
	if got := l.perParent("child"); len(got) != 1 || got[0] != 20+20+30 {
		t.Errorf("perParent(child) = %v, want [70]", got)
	}
}
