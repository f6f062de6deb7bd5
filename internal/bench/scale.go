package bench

import (
	"fmt"
	"time"

	"diacap/internal/core"
	"diacap/internal/latency"
	"diacap/internal/scale"
)

// ExtScale (figure E5) measures what the million-client coordinate
// pipeline trades away: for each population size it sweeps the cell
// budget k and reports the D-inflation (exact client-level D relative
// to the finest clustering tested) alongside the end-to-end wall-clock.
// Unlike the other figures it never materializes a pairwise matrix, so
// sizes far beyond Options.Matrix are routine.
func ExtScale(seed int64, numServers int, sizes, cellCounts []int) (*Figure, error) {
	if len(sizes) == 0 {
		sizes = []int{10000, 100000, 1000000}
	}
	if len(cellCounts) == 0 {
		cellCounts = []int{250, 500, 1000, 2000}
	}
	if numServers < 1 {
		numServers = 64
	}
	fig := &Figure{
		ID:     "E5",
		Title:  fmt.Sprintf("Coordinate pipeline: D-inflation and wall-clock vs cell budget, %d servers", numServers),
		XLabel: "Cell budget k",
		YLabel: "Exact D / exact D at finest k (inflation); wall-clock (ms)",
	}
	for _, n := range sizes {
		clients, err := latency.GenerateCoords(latency.DefaultConfig(n), seed)
		if err != nil {
			return nil, err
		}
		servers, err := scale.PlaceServers(clients, numServers, seed)
		if err != nil {
			return nil, err
		}
		// Mild capacities (2x perfectly-balanced load) force a
		// multi-server spread; otherwise the max-D objective lets the
		// solver collapse to one server and k has nothing to inflate.
		caps := core.UniformCapacities(numServers, 2*(n/numServers+1))
		exact := make([]float64, len(cellCounts))
		elapsed := make([]float64, len(cellCounts))
		for i, k := range cellCounts {
			start := time.Now()
			res, err := scale.AssignCoords(clients, scale.Options{
				Servers:    servers,
				Capacities: caps,
				MaxCells:   k,
				Seed:       seed,
			})
			if err != nil {
				return nil, err
			}
			exact[i] = res.ExactD
			elapsed[i] = float64(time.Since(start)) / float64(time.Millisecond)
		}
		// Inflation is relative to the best exact D the sweep reached
		// for this population, so every point is >= 1.
		base := exact[0]
		for _, d := range exact {
			if d < base {
				base = d
			}
		}
		infl := Series{Name: fmt.Sprintf("D inflation (n=%d)", len(clients))}
		wall := Series{Name: fmt.Sprintf("wall-clock ms (n=%d)", len(clients))}
		for i, k := range cellCounts {
			infl.X = append(infl.X, float64(k))
			infl.Y = append(infl.Y, exact[i]/base)
			wall.X = append(wall.X, float64(k))
			wall.Y = append(wall.Y, elapsed[i])
		}
		fig.Series = append(fig.Series, infl, wall)
	}
	return fig, nil
}
