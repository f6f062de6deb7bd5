// Package perfkit holds the cache-conscious data layouts and hot-path
// kernels behind the repo's assignment and evaluation loops: a flat,
// row-major, 64-byte-aligned latency representation (FlatMatrix) and
// fused min-plus / max-plus / max-path / nearest-server kernels.
//
// Each kernel is one body with no ...Ref twin: a kernel that runs no
// faster than the obvious scalar loop is that loop. The differential
// tests check every kernel bit for bit against independently written
// loops (a kernel may reorder comparisons and skip candidates that
// cannot win, but adds the same operands in the same pairings, so the
// produced bits never change). The one kernel that beats its loop,
// MaxMinPlus, by its early abandon, folds the lower bound of
// perfbench's quality check. core.LowerBoundUncached folds its rows
// itself, testing each pair's nearest-server candidate first, and is
// gated end to end by cmd/diabench's lower_bound/mit pair
// (core.LowerBoundUncached vs core.LowerBoundReference).
//
// perfkit deliberately depends on nothing in the repo: kernels consume
// plain slices and FlatMatrix values, and internal/core adapts its
// Instance storage to them (see core.Instance).
package perfkit

import (
	"fmt"
	"unsafe"
)

// cacheLineBytes is the alignment target for row starts. 64 bytes is
// the line size of every x86-64 and almost every arm64 part in
// circulation; aligning rows to it means a tiled kernel never splits a
// line between two rows.
const cacheLineBytes = 64

// f64PerLine is how many float64 lanes one cache line holds.
const f64PerLine = cacheLineBytes / 8

// FlatMatrix is a dense rows×cols float64 matrix in one contiguous,
// 64-byte-aligned allocation. Rows are padded to a multiple of the
// cache line (Stride ≥ Cols), so every row starts on a line boundary;
// the padding lanes are zero and must never be read by reductions
// (a stray 0 would poison a min).
type FlatMatrix struct {
	data   []float64
	rows   int
	cols   int
	stride int
}

// NewFlatMatrix allocates an aligned, zeroed rows×cols matrix.
func NewFlatMatrix(rows, cols int) *FlatMatrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("perfkit: NewFlatMatrix(%d, %d)", rows, cols))
	}
	stride := roundUp(cols, f64PerLine)
	return &FlatMatrix{
		data:   alignedF64(rows * stride),
		rows:   rows,
		cols:   cols,
		stride: stride,
	}
}

// FromRows copies a [][]float64 (all rows the same length) into a new
// aligned FlatMatrix.
func FromRows(rows [][]float64) *FlatMatrix {
	cols := 0
	if len(rows) > 0 {
		cols = len(rows[0])
	}
	f := NewFlatMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("perfkit: FromRows: row %d has %d entries, want %d", i, len(r), cols))
		}
		copy(f.Row(i), r)
	}
	return f
}

// Rows returns the row count.
func (f *FlatMatrix) Rows() int { return f.rows }

// Cols returns the column count.
func (f *FlatMatrix) Cols() int { return f.cols }

// Stride returns the padded row length in float64 lanes.
func (f *FlatMatrix) Stride() int { return f.stride }

// Row returns row i as a length-Cols slice into the backing array. The
// slice's capacity is clipped to Cols so callers cannot write into the
// alignment padding.
func (f *FlatMatrix) Row(i int) []float64 {
	off := i * f.stride
	return f.data[off : off+f.cols : off+f.cols]
}

// At returns element (i, j).
func (f *FlatMatrix) At(i, j int) float64 { return f.data[i*f.stride+j] }

// Set stores element (i, j).
func (f *FlatMatrix) Set(i, j int, v float64) { f.data[i*f.stride+j] = v }

// Resize reshapes the matrix to rows×cols, reusing the backing array
// when it is large enough — the pooled-buffer form used by the serving
// path, where batch sizes vary per request but settle quickly. After a
// Resize the element contents are unspecified (a reusing resize leaves
// stale values behind): callers must fully fill every row before any
// kernel reads it. Growth allocates a fresh aligned array.
//
//dialint:hotpath
func (f *FlatMatrix) Resize(rows, cols int) {
	if rows < 0 || cols < 0 {
		//lint:ignore dialint/hotpath-alloc the panic argument boxes only on the failure path
		panic("perfkit: negative Resize")
	}
	stride := roundUp(cols, f64PerLine)
	if rows*stride > len(f.data) {
		f.data = alignedF64(rows * stride)
	}
	f.rows, f.cols, f.stride = rows, cols, stride
}

// roundUp rounds n up to the next multiple of q (q > 0).
func roundUp(n, q int) int { return (n + q - 1) / q * q }

// alignedF64 returns a zeroed slice of exactly n float64 whose first
// element sits on a cache-line boundary. The Go allocator only
// guarantees element alignment, so over-allocate by one line and slice
// at the aligned offset.
func alignedF64(n int) []float64 {
	if n == 0 {
		return nil
	}
	buf := make([]float64, n+f64PerLine-1)
	off := 0
	if rem := uintptr(unsafe.Pointer(&buf[0])) % cacheLineBytes; rem != 0 {
		off = int((cacheLineBytes - rem) / 8)
	}
	return buf[off : off+n : off+n]
}
