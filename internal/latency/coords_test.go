package latency

import (
	"math"
	"testing"
)

// TestCoordLatencyMatchesMatrix pins CoordLatency to the CoordsToMatrix
// entry bit for bit on a seeded set that exercises the two rules a
// re-derivation could get wrong: the 1e-9 floor (coincident zero-height
// coordinates) and the lower-index-first argument order (a pair whose
// two LatencyTo orders differ in the last bit).
func TestCoordLatencyMatchesMatrix(t *testing.T) {
	cs, err := GenerateCoords(DefaultConfig(64), 7)
	if err != nil {
		t.Fatal(err)
	}
	cs = append(cs, Coord{X: 3, Y: 4}, Coord{X: 3, Y: 4})
	zi, zj := len(cs)-2, len(cs)-1

	asym := -1
	for j := 1; j < len(cs) && asym < 0; j++ {
		if math.Float64bits(cs[0].LatencyTo(cs[j])) != math.Float64bits(cs[j].LatencyTo(cs[0])) {
			asym = j
		}
	}
	if asym < 0 {
		t.Fatal("no pair whose LatencyTo argument orders differ; the order rule is not exercised")
	}

	m := CoordsToMatrix(cs)
	for i := range cs {
		for j := range cs {
			got, want := CoordLatency(cs, i, j), m[i][j]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("CoordLatency(%d, %d) = %v (bits %x), matrix entry %v (bits %x)",
					i, j, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	if got := CoordLatency(cs, zj, zi); got != 1e-9 {
		t.Fatalf("coincident zero-height pair = %v, want the 1e-9 floor", got)
	}
	if got, want := CoordLatency(cs, asym, 0), cs[0].LatencyTo(cs[asym]); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("CoordLatency(%d, 0) = %v, want the lower-index order %v", asym, got, want)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("CoordsToMatrix output fails Validate: %v", err)
	}
}
