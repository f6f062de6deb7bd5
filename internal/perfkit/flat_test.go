package perfkit

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

func TestFlatMatrixAlignment(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {7, 8}, {16, 80}, {100, 100}} {
		f := NewFlatMatrix(dims[0], dims[1])
		if f.Stride()%f64PerLine != 0 {
			t.Errorf("%v: stride %d not a multiple of %d", dims, f.Stride(), f64PerLine)
		}
		if f.Stride() < f.Cols() {
			t.Errorf("%v: stride %d < cols %d", dims, f.Stride(), f.Cols())
		}
		addr := uintptr(unsafe.Pointer(&f.data[0]))
		if addr%cacheLineBytes != 0 {
			t.Errorf("%v: base address %#x not %d-byte aligned", dims, addr, cacheLineBytes)
		}
		for i := 0; i < f.Rows(); i++ {
			row := f.Row(i)
			if len(row) != f.Cols() || cap(row) != f.Cols() {
				t.Fatalf("%v: row %d len/cap = %d/%d, want %d", dims, i, len(row), cap(row), f.Cols())
			}
			rowAddr := uintptr(unsafe.Pointer(&row[0]))
			if rowAddr%cacheLineBytes != 0 {
				t.Errorf("%v: row %d address %#x not aligned", dims, i, rowAddr)
			}
		}
	}
}

func TestFlatMatrixAccessors(t *testing.T) {
	f := NewFlatMatrix(3, 4)
	f.Set(1, 2, 42.5)
	if got := f.At(1, 2); got != 42.5 {
		t.Fatalf("At(1,2) = %v, want 42.5", got)
	}
	if got := f.Row(1)[2]; got != 42.5 {
		t.Fatalf("Row(1)[2] = %v, want 42.5", got)
	}
	// Padding must stay untouched by row writes: capacity is clipped.
	row := f.Row(0)
	if cap(row) != 4 {
		t.Fatalf("row cap = %d, want 4", cap(row))
	}
}

func TestFromRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := make([][]float64, 17)
	for i := range rows {
		rows[i] = make([]float64, 23)
		for j := range rows[i] {
			rows[i][j] = rng.Float64() * 300
		}
	}
	f := FromRows(rows)
	for i := range rows {
		for j := range rows[i] {
			if got, want := math.Float64bits(f.At(i, j)), math.Float64bits(rows[i][j]); got != want {
				t.Fatalf("At(%d,%d) bits %x, want %x", i, j, got, want)
			}
		}
	}
}

func TestFlatMatrixResize(t *testing.T) {
	f := NewFlatMatrix(8, 5)
	base := &f.data[0]
	// Shrinking and same-size reshapes must reuse the backing array.
	for _, dims := range [][2]int{{4, 5}, {8, 5}, {2, 8}, {8, 5}} {
		f.Resize(dims[0], dims[1])
		if f.Rows() != dims[0] || f.Cols() != dims[1] {
			t.Fatalf("Resize%v: got %dx%d", dims, f.Rows(), f.Cols())
		}
		if f.Stride()%f64PerLine != 0 || f.Stride() < f.Cols() {
			t.Fatalf("Resize%v: bad stride %d", dims, f.Stride())
		}
		if &f.data[0] != base {
			t.Fatalf("Resize%v reallocated a fitting buffer", dims)
		}
	}
	// Row writes and reads still address the reshaped layout.
	f.Resize(3, 7)
	for i := 0; i < 3; i++ {
		for j := 0; j < 7; j++ {
			f.Set(i, j, float64(10*i+j))
		}
	}
	for i := 0; i < 3; i++ {
		row := f.Row(i)
		if len(row) != 7 || cap(row) != 7 {
			t.Fatalf("row %d len/cap = %d/%d, want 7", i, len(row), cap(row))
		}
		for j, v := range row {
			if v != float64(10*i+j) {
				t.Fatalf("row %d[%d] = %v, want %v", i, j, v, float64(10*i+j))
			}
		}
	}
	// Growth allocates fresh aligned storage.
	f.Resize(64, 80)
	if f.Rows() != 64 || f.Cols() != 80 {
		t.Fatalf("grow: got %dx%d", f.Rows(), f.Cols())
	}
	addr := uintptr(unsafe.Pointer(&f.data[0]))
	if addr%cacheLineBytes != 0 {
		t.Fatalf("grown base address %#x not aligned", addr)
	}
	// Steady state: repeated same-shape resizes are allocation-free.
	if avg := testing.AllocsPerRun(200, func() { f.Resize(64, 80) }); avg != 0 {
		t.Errorf("steady-state Resize allocates %.2f times per run, want 0", avg)
	}
}
