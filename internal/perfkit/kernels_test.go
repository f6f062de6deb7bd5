package perfkit

import (
	"math"
	"math/rand"
	"testing"
)

// randMatrix fills a FlatMatrix with positive latencies; when symmetric
// is set the result has a zero diagonal and mirrored entries, like the
// repo's server-to-server tables.
func randMatrix(rng *rand.Rand, rows, cols int, symmetric bool) *FlatMatrix {
	f := NewFlatMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			f.Set(i, j, 1+rng.Float64()*250)
		}
	}
	if symmetric {
		for i := 0; i < rows; i++ {
			f.Set(i, i, 0)
			for j := i + 1; j < cols; j++ {
				f.Set(j, i, f.At(i, j))
			}
		}
	}
	return f
}

// randAssignment returns a random assignment of nc clients over ns
// servers with roughly the given unassigned fraction.
func randAssignment(rng *rand.Rand, nc, ns int, unassignedFrac float64) []int {
	a := make([]int, nc)
	for i := range a {
		if rng.Float64() < unassignedFrac {
			a[i] = -1
		} else {
			a[i] = rng.Intn(ns)
		}
	}
	return a
}

func TestMinPlusDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(130)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.Float64() * 500
			b[i] = rng.Float64() * 500
		}
		got, want := MinPlus(a, b), MinPlusRef(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: MinPlus = %v (bits %x), ref = %v (bits %x)",
				n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if got := MinPlus(nil, nil); !math.IsInf(got, 1) {
		t.Fatalf("MinPlus(empty) = %v, want +Inf", got)
	}
}

// TestMaxMinPlusDifferential checks the fused, early-abandoning phase-2
// fold against the full-scan reference: folding every row block from
// every start index, threaded through a running lb exactly as
// computeLowerBound's workers do, must stay bit-identical.
func TestMaxMinPlusDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		rows := rng.Intn(60) + 1
		cols := rng.Intn(40) + 1
		cs := randMatrix(rng, rows, cols, false)
		b := randMatrix(rng, rows, cols, false)
		lbGot, lbWant := 0.0, 0.0
		for i := 0; i < rows; i++ {
			lbGot = MaxMinPlus(b.Row(i), cs, i, lbGot)
			lbWant = MaxMinPlusRef(b.Row(i), cs, i, lbWant)
			if math.Float64bits(lbGot) != math.Float64bits(lbWant) {
				t.Fatalf("%dx%d row %d: MaxMinPlus = %v (bits %x), ref = %v (bits %x)",
					rows, cols, i, lbGot, math.Float64bits(lbGot), lbWant, math.Float64bits(lbWant))
			}
		}
		// A worker starting mid-table with a stale (lower) lb still
		// converges to the same fold.
		mid := rows / 2
		got := MaxMinPlus(b.Row(0), cs, mid, 0)
		want := MaxMinPlusRef(b.Row(0), cs, mid, 0)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%dx%d from %d: MaxMinPlus = %v, ref = %v", rows, cols, mid, got, want)
		}
	}
	// Empty bi rows yield +Inf minima, which always raise lb — same as
	// folding MinPlusRef(nil, ...) through the reference.
	if got := MaxMinPlus(nil, NewFlatMatrix(3, 2), 0, -1); !math.IsInf(got, 1) {
		t.Fatalf("MaxMinPlus(empty bi) = %v, want +Inf", got)
	}
}

func TestMaxPlusSkipDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(100)
		row := make([]float64, n)
		ecc := make([]float64, n)
		for i := range row {
			row[i] = rng.Float64() * 300
			if rng.Float64() < 0.3 {
				ecc[i] = -1 // empty-server sentinel
			} else {
				ecc[i] = rng.Float64() * 200
			}
		}
		got, want := MaxPlusSkip(row, ecc), MaxPlusSkipRef(row, ecc)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: MaxPlusSkip = %v, ref = %v", n, got, want)
		}
	}
	if got := MaxPlusSkip(nil, nil); !math.IsInf(got, -1) {
		t.Fatalf("MaxPlusSkip(empty) = %v, want -Inf", got)
	}
}

func TestEccIntoDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		nc, ns := 1+rng.Intn(80), 1+rng.Intn(12)
		cs := randMatrix(rng, nc, ns, false)
		a := randAssignment(rng, nc, ns, 0.2)
		got := make([]float64, ns)
		want := make([]float64, ns)
		EccInto(cs, a, got)
		EccIntoRef(cs, a, want)
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("ecc[%d] = %v, ref %v", k, got[k], want[k])
			}
		}
	}
}

func TestMaxPathEccDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 150; trial++ {
		ns := 1 + rng.Intn(40)
		ss := randMatrix(rng, ns, ns, true)
		ecc := make([]float64, ns)
		for k := range ecc {
			if rng.Float64() < 0.35 {
				ecc[k] = -1
			} else {
				ecc[k] = rng.Float64() * 150
			}
		}
		got := MaxPathEcc(ss, ecc, nil)
		want := MaxPathEccRef(ss, ecc)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ns=%d: MaxPathEcc = %v, ref = %v", ns, got, want)
		}
	}
	// All-empty must yield the evaluators' zero default.
	ss := randMatrix(rand.New(rand.NewSource(5)), 4, 4, true)
	if got := MaxPathEcc(ss, []float64{-1, -1, -1, -1}, nil); got != 0 {
		t.Fatalf("MaxPathEcc(all empty) = %v, want 0", got)
	}
}

func TestMaxPathPairsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 60; trial++ {
		nc, ns := 1+rng.Intn(90), 1+rng.Intn(10)
		cs := randMatrix(rng, nc, ns, false)
		ss := randMatrix(rng, ns, ns, true)
		a := randAssignment(rng, nc, ns, 0.15)

		// Reference: direct enumeration with sentinel branches, the
		// shape core.MaxPathNaive had before perfkit.
		var want float64
		for i := 0; i < nc; i++ {
			if a[i] < 0 {
				continue
			}
			for j := i; j < nc; j++ {
				if a[j] < 0 {
					continue
				}
				if v := cs.At(i, a[i]) + ss.At(a[i], a[j]) + cs.At(j, a[j]); v > want {
					want = v
				}
			}
		}

		dc := make([]float64, nc)
		srv := make([]int, nc)
		n := CompactAssigned(cs, a, dc, srv)
		got := MaxPathPairsRange(dc[:n], srv[:n], ss, 0, 1)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("nc=%d ns=%d: MaxPathPairs = %v, ref = %v", nc, ns, got, want)
		}

		// Strided decomposition must reproduce the sequential result
		// for any stride (this is what parallel fan-out relies on).
		for _, stride := range []int{2, 3, 7} {
			var strided float64
			for start := 0; start < stride; start++ {
				if v := MaxPathPairsRange(dc[:n], srv[:n], ss, start, stride); v > strided {
					strided = v
				}
			}
			if math.Float64bits(strided) != math.Float64bits(got) {
				t.Fatalf("stride %d: %v != sequential %v", stride, strided, got)
			}
		}
	}
}

func TestNearestIntoDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		nc, ns := 1+rng.Intn(120), 1+rng.Intn(20)
		cs := randMatrix(rng, nc, ns, false)
		// Inject exact ties to exercise the lower-index rule.
		if ns > 1 && nc > 1 {
			cs.Set(0, 0, 7)
			cs.Set(0, ns-1, 7)
		}
		got := make([]int, nc)
		want := make([]int, nc)
		NearestInto(cs, got)
		NearestIntoRef(cs, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("client %d: NearestInto = %d, ref = %d", i, got[i], want[i])
			}
		}
	}
}
