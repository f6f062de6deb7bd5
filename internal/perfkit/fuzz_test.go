package perfkit

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzKernelsDifferential derives a random instance (client-server
// table, symmetric server table, assignment, eccentricity vector) from
// the fuzz inputs and checks every kernel with a naive reference twin
// against it bit-for-bit, and the eccentricity route to D (EccInto +
// MaxPathEcc) against the direct client-pair loop. The generator
// mirrors the repo's data invariants: positive finite latencies,
// zero-diagonal symmetric ss, -1 eccentricity sentinels, -1 unassigned
// markers.
func FuzzKernelsDifferential(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(4), uint16(0x0f0f))
	f.Add(int64(42), uint8(1), uint8(1), uint16(0))
	f.Add(int64(-7), uint8(90), uint8(12), uint16(0xffff))
	f.Fuzz(func(t *testing.T, seed int64, ncRaw, nsRaw uint8, mask uint16) {
		nc := int(ncRaw)%96 + 1
		ns := int(nsRaw)%14 + 1
		rng := rand.New(rand.NewSource(seed))
		cs := randMatrix(rng, nc, ns, false)
		ss := randMatrix(rng, ns, ns, true)

		a := make([]int, nc)
		for i := range a {
			if mask&(1<<(uint(i)%16)) != 0 && rng.Float64() < 0.25 {
				a[i] = -1
			} else {
				a[i] = rng.Intn(ns)
			}
		}

		// Full pair scan, sequential and strided.
		dc := make([]float64, nc)
		srv := make([]int, nc)
		n := CompactAssigned(cs, a, dc, srv)
		seq := MaxPathPairsRange(dc[:n], srv[:n], ss, 0, 1)
		want := directMaxPath(cs, ss, a)
		if math.Float64bits(seq) != math.Float64bits(want) {
			t.Fatalf("MaxPathPairsRange %v != direct %v", seq, want)
		}
		stride := int(mask)%5 + 2
		var strided float64
		for start := 0; start < stride; start++ {
			if v := MaxPathPairsRange(dc[:n], srv[:n], ss, start, stride); v > strided {
				strided = v
			}
		}
		if math.Float64bits(strided) != math.Float64bits(seq) {
			t.Fatalf("strided %v != sequential %v", strided, seq)
		}

		// The eccentricity route to the same D.
		ecc := make([]float64, ns)
		EccInto(cs, a, ecc)
		if got := MaxPathEcc(ss, ecc); math.Abs(got-want) > 1e-9 {
			t.Fatalf("MaxPathEcc over EccInto %v != direct %v", got, want)
		}

		// Min-plus over two rows.
		if nc >= 2 {
			got, want := MinPlus(cs.Row(0), cs.Row(1)), MinPlusRef(cs.Row(0), cs.Row(1))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("MinPlus %v != ref %v", got, want)
			}
		}
	})
}
