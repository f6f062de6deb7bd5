package scale

import (
	"fmt"
	"math"

	"diacap/internal/latency"
)

// Cell is one cluster of clients in the reduced instance: its members
// stand in for each other, represented by Rep (their centroid with the
// mean access height). The reduced solve sees only Rep; the exact D of
// the expansion charges every member its own latency.
type Cell struct {
	Rep     latency.Coord
	Members []int
}

// geomDist is the pure Euclidean part of the coordinate metric.
// Clustering groups by geometry only: heights are per-node access delays
// that no choice of cell boundary can cancel, so they are excluded from
// the grouping decision and re-enter through Rep's mean height.
func geomDist(a, b latency.Coord) float64 {
	dx, dy, dz := a.X-b.X, a.Y-b.Y, a.Z-b.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// grid is a uniform spatial hash over the X–Y plane with bucket edge =
// size. For points p, q with geomDist(p, q) ≤ size, q's bucket is within
// the 3×3 neighborhood of p's (the X–Y projection never exceeds the 3-D
// distance), so radius-bounded neighbor queries scan at most nine
// buckets.
type grid struct {
	size    float64
	buckets map[[2]int32][]int
}

func newGrid(size float64) *grid {
	return &grid{size: size, buckets: make(map[[2]int32][]int)}
}

func (g *grid) key(c latency.Coord) [2]int32 {
	return [2]int32{int32(math.Floor(c.X / g.size)), int32(math.Floor(c.Y / g.size))}
}

func (g *grid) add(c latency.Coord, id int) {
	k := g.key(c)
	g.buckets[k] = append(g.buckets[k], id)
}

// nearestWithin returns the stored id nearest to c among those with
// geomDist ≤ r (r must be ≤ g.size), or -1. pts maps ids to coordinates.
func (g *grid) nearestWithin(c latency.Coord, r float64, pts []latency.Coord) (int, float64) {
	k := g.key(c)
	best, bestD := -1, math.Inf(1)
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			for _, id := range g.buckets[[2]int32{k[0] + dx, k[1] + dy}] {
				if d := geomDist(c, pts[id]); d < bestD {
					best, bestD = id, d
				}
			}
		}
	}
	if best == -1 || bestD > r {
		return -1, 0
	}
	return best, bestD
}

// nearest returns the stored id nearest to c with no radius bound,
// expanding bucket rings outward until no closer point can exist: every
// point in an unvisited ring ≥ ring is at X–Y distance > (ring−1)·size.
func (g *grid) nearest(c latency.Coord, pts []latency.Coord) int {
	k := g.key(c)
	best, bestD := -1, math.Inf(1)
	for ring := int32(0); ; ring++ {
		if best != -1 && float64(ring-1)*g.size > bestD {
			return best
		}
		scan := func(bk [2]int32) {
			for _, id := range g.buckets[bk] {
				if d := geomDist(c, pts[id]); d < bestD {
					best, bestD = id, d
				}
			}
		}
		if ring == 0 {
			scan(k)
		} else {
			for d := -ring; d <= ring; d++ {
				scan([2]int32{k[0] + d, k[1] - ring})
				scan([2]int32{k[0] + d, k[1] + ring})
			}
			for d := -ring + 1; d <= ring-1; d++ {
				scan([2]int32{k[0] - ring, k[1] + d})
				scan([2]int32{k[0] + ring, k[1] + d})
			}
		}
		// Callers insert at least one point, so some ring always finds a
		// candidate and the cutoff above eventually fires.
	}
}

// Cluster aggregates clients into at most maxCells cells: a greedy
// radius-r covering seeds the centers (r grows geometrically until the
// covering fits), then lloydRounds rounds of Lloyd refinement re-center
// them. With len(clients) ≤ maxCells every client becomes its own
// singleton cell (Rep = the client), making the reduced instance
// identical to the direct one — the k → n convergence case.
func Cluster(clients []latency.Coord, maxCells int) ([]Cell, error) {
	n := len(clients)
	if n == 0 {
		return nil, fmt.Errorf("scale: no clients to cluster")
	}
	if maxCells < 1 {
		return nil, fmt.Errorf("scale: maxCells = %d, want >= 1", maxCells)
	}
	if n <= maxCells {
		cells := make([]Cell, n)
		for i := range clients {
			cells[i] = Cell{Rep: clients[i], Members: []int{i}}
		}
		return cells, nil
	}

	centers, radius := cover(clients, maxCells)
	member := lloyd(clients, centers, radius)
	return finalize(clients, centers, member), nil
}

// cover runs the greedy radius-r covering: clients in index order either
// join the nearest existing center within r or found a new center at
// their own position. The initial r, diag/(2·√maxCells), is what a
// uniform spread of maxCells disks needs to tile the bounding box; r
// grows ×1.6 and the covering restarts while it produces too many
// centers (a large enough r always yields a single center, so the retry
// loop terminates).
func cover(clients []latency.Coord, maxCells int) (centers []latency.Coord, radius float64) {
	lo := latency.Coord{X: math.Inf(1), Y: math.Inf(1), Z: math.Inf(1)}
	hi := latency.Coord{X: math.Inf(-1), Y: math.Inf(-1), Z: math.Inf(-1)}
	for _, c := range clients {
		lo.X, lo.Y, lo.Z = math.Min(lo.X, c.X), math.Min(lo.Y, c.Y), math.Min(lo.Z, c.Z)
		hi.X, hi.Y, hi.Z = math.Max(hi.X, c.X), math.Max(hi.Y, c.Y), math.Max(hi.Z, c.Z)
	}
	diag := geomDist(lo, hi)
	r := diag / (2 * math.Sqrt(float64(maxCells)))
	if r <= 0 {
		// All clients geometrically coincident: a single cell covers them.
		return []latency.Coord{clients[0]}, 1
	}
	for {
		g := newGrid(r)
		centers = centers[:0]
		ok := true
		for _, c := range clients {
			if id, _ := g.nearestWithin(c, r, centers); id >= 0 {
				continue
			}
			if len(centers) == maxCells {
				ok = false
				break
			}
			centers = append(centers, c)
			g.add(c, len(centers)-1)
		}
		if ok {
			return centers, r
		}
		r *= 1.6
	}
}

// lloyd refines centers with lloydRounds k-means rounds: assign every
// client to its geometrically nearest center, then move each center to
// its members' centroid (mean height included, so reps keep a realistic
// access delay). Returns the final membership. radius seeds the search
// grid's bucket size; the unbounded ring search keeps reassignment
// correct even when centroids drift apart.
func lloyd(clients []latency.Coord, centers []latency.Coord, radius float64) []int {
	n, k := len(clients), len(centers)
	member := make([]int, n)
	sumX := make([]float64, k)
	sumY := make([]float64, k)
	sumZ := make([]float64, k)
	sumH := make([]float64, k)
	count := make([]int, k)

	for it := 0; it <= lloydRounds; it++ {
		g := newGrid(radius)
		for id, c := range centers {
			g.add(c, id)
		}
		for i, c := range clients {
			member[i] = g.nearest(c, centers)
		}
		if it == lloydRounds {
			return member
		}
		for j := 0; j < k; j++ {
			sumX[j], sumY[j], sumZ[j], sumH[j], count[j] = 0, 0, 0, 0, 0
		}
		for i, c := range clients {
			j := member[i]
			sumX[j] += c.X
			sumY[j] += c.Y
			sumZ[j] += c.Z
			sumH[j] += c.H
			count[j]++
		}
		for j := 0; j < k; j++ {
			if count[j] == 0 {
				continue // keep the old center; finalize drops it if still empty
			}
			f := float64(count[j])
			centers[j] = latency.Coord{X: sumX[j] / f, Y: sumY[j] / f, Z: sumZ[j] / f, H: sumH[j] / f}
		}
	}
	return member
}

// finalize builds the Cell list: reps are the member centroids (mean
// height). Empty centers are dropped.
func finalize(clients []latency.Coord, centers []latency.Coord, member []int) []Cell {
	k := len(centers)
	cells := make([]Cell, k)
	for i, j := range member {
		cells[j].Members = append(cells[j].Members, i)
		c := clients[i]
		cells[j].Rep.X += c.X
		cells[j].Rep.Y += c.Y
		cells[j].Rep.Z += c.Z
		cells[j].Rep.H += c.H
	}
	out := cells[:0]
	for j := range cells {
		m := len(cells[j].Members)
		if m == 0 {
			continue
		}
		f := float64(m)
		cells[j].Rep.X /= f
		cells[j].Rep.Y /= f
		cells[j].Rep.Z /= f
		cells[j].Rep.H /= f
		out = append(out, cells[j])
	}
	return out
}
