package perfkit

import "sync"

// Scratch is a bump-allocating arena for the temporary float64 slices
// the kernels need (eccentricity vectors). Taking memory from a Scratch
// instead of make keeps the evaluators allocation-free on the hot path:
// local-search loops call MaxInteractionPath thousands of times per
// second, and the per-call ecc/used allocations used to dominate their
// profile.
//
// Take'd slices stay valid until the next Reset, even if a later Take
// grows the arena (growth allocates a fresh backing array; outstanding
// slices keep referencing the old one). Returned memory is NOT zeroed —
// callers must fully initialize what they take. A Scratch is not safe
// for concurrent use; give each goroutine its own (GetScratch).
type Scratch struct {
	f64 bumpF64
}

// Floats takes an uninitialized []float64 of length n from the arena.
func (s *Scratch) Floats(n int) []float64 { return s.f64.take(n) }

// Reset makes all arena memory available for reuse. Slices taken before
// the Reset must no longer be used (they will be overwritten).
func (s *Scratch) Reset() {
	s.f64.off = 0
}

type bumpF64 struct {
	buf []float64
	off int
}

func (b *bumpF64) take(n int) []float64 {
	if b.off+n > len(b.buf) {
		size := 2*len(b.buf) + n
		b.buf = make([]float64, size)
		b.off = 0
	}
	s := b.buf[b.off : b.off+n : b.off+n]
	b.off += n
	return s
}

// scratchPool recycles Scratch arenas across calls so repeated
// evaluations (the dgreedy trace loop, local search) reuse warmed
// buffers instead of growing fresh ones.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a reset Scratch from the shared pool.
func GetScratch() *Scratch {
	s := scratchPool.Get().(*Scratch)
	s.Reset()
	return s
}

// PutScratch returns a Scratch to the pool. The caller must not use any
// slice taken from it afterwards.
func PutScratch(s *Scratch) { scratchPool.Put(s) }
