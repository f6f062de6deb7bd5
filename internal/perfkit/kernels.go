package perfkit

import "math"

// Kernel contracts
//
// Every kernel here is one body; none keeps a ...Ref twin. MaxMinPlus
// is the one kernel that beats the plain loop, by its early abandon;
// perfbench's quality check folds its lower bound with it.
// core.LowerBoundUncached runs the same fold inline, after a
// nearest-server pre-test per pair, and diabench measures it against
// core.LowerBoundReference (lower_bound/mit). A kernel is free to
// reorder *comparisons* (min/max are order-independent) and to skip
// elements that provably cannot win, but it must combine operands in
// exactly the same additions, with the same left-to-right association,
// as the plain loop it replaces. That is the property the differential
// tests assert with math.Float64bits against independently written
// loops, and it is what lets internal/core run a kernel inside
// MaxInteractionPath or LowerBound without perturbing a single figure
// CSV.

// MinPlus returns min over i of a[i] + b[i], or +Inf when a is empty.
// b must be at least as long as a. It is the inner step of the paper's
// super-optimal lower bound (both phases are min-plus products).
//
//dialint:hotpath
func MinPlus(a, b []float64) float64 {
	b = b[:len(a)]
	best := math.Inf(1)
	for i, x := range a {
		if v := x + b[i]; v < best {
			best = v
		}
	}
	return best
}

// MaxMinPlus folds rows j ∈ [jStart, cs.Rows()) of cs into the running
// maximum lb: for each row, the candidate is min over l of
// bi[l] + row[l], and lb becomes the larger of the two. It is phase two
// of the paper's super-optimal lower bound, one client row bi per call,
// fused so the triangular pair scan makes one call per row instead of
// one per pair.
//
// A row is abandoned as soon as its running minimum falls to lb or
// below: minima only decrease and lb only increases, so such a row can
// never raise lb. That skip drops most of the work once lb is large and
// provably cannot change the fold — the result is bit-identical to
// taking every row's full minimum.
//
//dialint:hotpath
func MaxMinPlus(bi []float64, cs *FlatMatrix, jStart int, lb float64) float64 {
	n := cs.Rows()
	for j := jStart; j < n; j++ {
		cj := cs.Row(j)[:len(bi)]
		best := math.Inf(1)
		for l, x := range bi {
			if v := x + cj[l]; v < best {
				best = v
				if best <= lb {
					break
				}
			}
		}
		if best > lb {
			lb = best
		}
	}
	return lb
}

// EccInto fills ecc (length ss-server count = cs.Cols()) with the
// eccentricity of each server under assignment a: the maximum distance
// from the server to a client assigned to it, or -1 for servers with
// no clients. a[i] < 0 means client i is unassigned.
//
//dialint:hotpath
func EccInto(cs *FlatMatrix, a []int, ecc []float64) {
	for k := range ecc {
		ecc[k] = -1
	}
	for i, s := range a {
		if s < 0 {
			continue
		}
		if d := cs.data[i*cs.stride+s]; d > ecc[s] {
			ecc[s] = d
		}
	}
}

// MaxPathEcc returns the maximum interaction-path length implied by
// per-server eccentricities: max over server pairs (s, t), s ≤ t, both
// with ecc ≥ 0, of ecc[s] + ss[s][t] + ecc[t], including s = t. The
// result is 0 when no server has clients (matching the evaluators it
// backs).
//
//dialint:hotpath
func MaxPathEcc(ss *FlatMatrix, ecc []float64) float64 {
	ns := len(ecc)
	var best float64
	for s := 0; s < ns; s++ {
		if ecc[s] < 0 {
			continue
		}
		row := ss.Row(s)
		for t := s; t < ns; t++ {
			if ecc[t] < 0 {
				continue
			}
			if v := ecc[s] + row[t] + ecc[t]; v > best {
				best = v
			}
		}
	}
	return best
}

// NearestInto fills out[i] with the argmin of row i of cs — each
// client's closest server, ties broken toward the lower index (strict
// < comparison). out must have length cs.Rows(). The running minimum
// is kept in a register instead of re-reading row[best] each
// comparison, and the row slice is re-sliced for bounds-check
// elimination.
//
//dialint:hotpath
func NearestInto(cs *FlatMatrix, out []int) {
	for i := 0; i < cs.rows; i++ {
		row := cs.Row(i)
		if len(row) == 0 {
			out[i] = -1
			continue
		}
		best, bv := 0, row[0]
		for k := 1; k < len(row); k++ {
			if row[k] < bv {
				best, bv = k, row[k]
			}
		}
		out[i] = best
	}
}
