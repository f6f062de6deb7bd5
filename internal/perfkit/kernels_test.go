package perfkit

import (
	"math"
	"math/rand"
	"sort"
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

// TestMaxPlusSkipDifferential checks MaxPlusSkip against the maximum
// taken over the qualifying (ecc ≥ 0) positions gathered first, plus
// the fixed expectations: sentinel entries never contribute, and an
// empty or all-sentinel input yields -Inf.
func TestMaxPlusSkipDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(100)
		row := make([]float64, n)
		ecc := make([]float64, n)
		var used []int
		for i := range row {
			row[i] = rng.Float64() * 300
			if rng.Float64() < 0.3 {
				ecc[i] = -1 // empty-server sentinel
			} else {
				ecc[i] = rng.Float64() * 200
				used = append(used, i)
			}
		}
		want := math.Inf(-1)
		for _, i := range used {
			want = math.Max(want, row[i]+ecc[i])
		}
		if got := MaxPlusSkip(row, ecc); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: MaxPlusSkip = %v, want %v", n, got, want)
		}
	}
	// The sentinel's row entry is the largest, yet it never counts.
	if got := MaxPlusSkip([]float64{1, 500, 2}, []float64{10, -1, 3}); got != 11 {
		t.Fatalf("MaxPlusSkip skipped the wrong entry: %v, want 11", got)
	}
	if got := MaxPlusSkip(nil, nil); !math.IsInf(got, -1) {
		t.Fatalf("MaxPlusSkip(empty) = %v, want -Inf", got)
	}
	if got := MaxPlusSkip([]float64{4, 5}, []float64{-1, -1}); !math.IsInf(got, -1) {
		t.Fatalf("MaxPlusSkip(all sentinel) = %v, want -Inf", got)
	}
}

// TestEccIntoDifferential checks EccInto against eccentricities built
// server by server (the maximum over the clients on each server), and
// that unassigned (-1) clients are ignored and empty servers read -1.
func TestEccIntoDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		nc, ns := 1+rng.Intn(80), 1+rng.Intn(12)
		cs := randMatrix(rng, nc, ns, false)
		a := randAssignment(rng, nc, ns, 0.2)
		got := make([]float64, ns)
		EccInto(cs, a, got)
		for k := range got {
			want := -1.0
			for i, s := range a {
				if s == k {
					want = math.Max(want, cs.At(i, k))
				}
			}
			if math.Float64bits(got[k]) != math.Float64bits(want) {
				t.Fatalf("ecc[%d] = %v, want %v", k, got[k], want)
			}
		}
	}
	cs := NewFlatMatrix(3, 2)
	for i, row := range [][]float64{{5, 9}, {7, 1}, {8, 8}} {
		copy(cs.Row(i), row)
	}
	ecc := []float64{42, 42}
	EccInto(cs, []int{0, -1, -1}, ecc)
	if ecc[0] != 5 || ecc[1] != -1 {
		t.Fatalf("EccInto with unassigned clients = %v, want [5 -1]", ecc)
	}
}

// TestMaxPathEccDifferential checks MaxPathEcc, fed by EccInto, against
// the direct client-pair maximum it decomposes (to 1e-9: the pair loop
// may add a cross-server path's endpoints in the other order), and the
// fixed expectations: no used server gives 0, and sentinel servers
// never contribute.
func TestMaxPathEccDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 150; trial++ {
		nc, ns := 1+rng.Intn(60), 1+rng.Intn(40)
		cs := randMatrix(rng, nc, ns, false)
		ss := randMatrix(rng, ns, ns, true)
		a := randAssignment(rng, nc, ns, 0.2)
		ecc := make([]float64, ns)
		EccInto(cs, a, ecc)
		got, want := MaxPathEcc(ss, ecc), directMaxPath(cs, ss, a)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("nc=%d ns=%d: MaxPathEcc = %v, direct pair loop %v", nc, ns, got, want)
		}
	}
	ss := randMatrix(rand.New(rand.NewSource(5)), 4, 4, true)
	if got := MaxPathEcc(ss, []float64{-1, -1, -1, -1}); got != 0 {
		t.Fatalf("MaxPathEcc(all empty) = %v, want 0", got)
	}
	// Server 1 alone is used: D is its diagonal, 2·ecc, whatever the
	// far-away sentinel servers' table entries say.
	if got := MaxPathEcc(ss, []float64{-1, 3, -1, -1}); got != 6 {
		t.Fatalf("MaxPathEcc(one used server) = %v, want 6", got)
	}
}

// directMaxPath is D by definition: the maximum over assigned client
// pairs i ≤ j of d(i, s_i) + d(s_i, s_j) + d(s_j, j), 0 with none.
func directMaxPath(cs, ss *FlatMatrix, a []int) float64 {
	var best float64
	for i := range a {
		if a[i] < 0 {
			continue
		}
		for j := i; j < len(a); j++ {
			if a[j] < 0 {
				continue
			}
			if v := cs.At(i, a[i]) + ss.At(a[i], a[j]) + cs.At(j, a[j]); v > best {
				best = v
			}
		}
	}
	return best
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
		want := directMaxPath(cs, ss, a)

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

// TestNearestIntoDifferential checks NearestInto against the first
// server of each row sorted by (latency, index), and the fixed
// expectations: exact ties go to the lowest index, and an empty row
// gives -1.
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
		NearestInto(cs, got)
		order := make([]int, ns)
		for i := range got {
			row := cs.Row(i)
			for k := range order {
				order[k] = k
			}
			sort.SliceStable(order, func(x, y int) bool { return row[order[x]] < row[order[y]] })
			if got[i] != order[0] {
				t.Fatalf("client %d: NearestInto = %d, want %d", i, got[i], order[0])
			}
		}
	}
	cs := NewFlatMatrix(2, 4)
	copy(cs.Row(0), []float64{9, 3, 5, 3})
	copy(cs.Row(1), []float64{2, 2, 2, 2})
	out := make([]int, 2)
	NearestInto(cs, out)
	if out[0] != 1 || out[1] != 0 {
		t.Fatalf("NearestInto ties = %v, want [1 0]", out)
	}
	empty := NewFlatMatrix(2, 0)
	NearestInto(empty, out)
	if out[0] != -1 || out[1] != -1 {
		t.Fatalf("NearestInto on empty rows = %v, want [-1 -1]", out)
	}
}
