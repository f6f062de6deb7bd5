package perfkit

import (
	"math/rand"
	"testing"

	"diacap/internal/testkit"
)

// Every //dialint:hotpath kernel must be allocation-free. dialint's
// hotpath-alloc analyzer rejects allocating constructs in the source;
// this test pins the runtime half of the same contract with the
// allocation counter, so a kernel cannot quietly start allocating
// through a change the analyzer does not model (an interface
// conversion behind a helper, an append that escapes analysis).
func TestHotpathKernelsZeroAlloc(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping")
	}
	rng := rand.New(rand.NewSource(11))
	const n, ns = 96, 12
	cs := randMatrix(rng, n, ns, false)
	ss := randMatrix(rng, ns, ns, true)
	a := make([]int, n)
	for i := range a {
		a[i] = rng.Intn(ns)
	}
	ecc := make([]float64, ns)
	EccInto(cs, a, ecc)
	dc := make([]float64, n)
	srv := make([]int, n)
	CompactAssigned(cs, a, dc, srv)
	out := make([]int, n)

	var fsink float64
	var isink int
	cases := []struct {
		name string
		fn   func()
	}{
		{"MinPlus", func() { fsink = MinPlus(cs.Row(0), cs.Row(1)) }},
		{"MaxMinPlus", func() { fsink = MaxMinPlus(cs.Row(0), cs, 1, 0) }},
		{"MaxPlusSkip", func() { fsink = MaxPlusSkip(ss.Row(0), ecc) }},
		{"EccInto", func() { EccInto(cs, a, ecc) }},
		{"MaxPathEcc", func() { fsink = MaxPathEcc(ss, ecc) }},
		{"CompactAssigned", func() { isink = CompactAssigned(cs, a, dc, srv) }},
		{"MaxPathPairsRange", func() { fsink = MaxPathPairsRange(dc, srv, ss, 0, 1) }},
		{"NearestInto", func() { NearestInto(cs, out) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if avg := testing.AllocsPerRun(200, tc.fn); avg != 0 {
				t.Errorf("%s allocates %.2f times per run, want 0", tc.name, avg)
			}
		})
	}
	_, _ = fsink, isink
}
