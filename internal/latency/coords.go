package latency

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// Coord is a network coordinate: a point in a (≤3)-dimensional Euclidean
// space plus a non-negative height absorbing access-link delay, exactly
// the Vivaldi height-vector model (internal/coords). The predicted
// one-way latency between two coordinates is the Euclidean distance
// between the points plus both heights.
//
// Unlike a measured Matrix, coordinate-predicted latencies form a metric
// (the triangle inequality holds by construction: heights are
// non-negative and appear once per endpoint). Any pairwise latency is
// computed on demand, so the million-client pipeline in internal/scale
// gets the exact D of an assignment without a matrix, and coordinates
// are the scalable ingestion format: n clients cost O(n) memory instead
// of the O(n²) of a matrix.
type Coord struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	Z float64 `json:"z,omitempty"`
	H float64 `json:"h,omitempty"`
}

// LatencyTo returns the coordinate-predicted one-way latency in ms:
// Euclidean distance plus both heights.
func (c Coord) LatencyTo(o Coord) float64 {
	dx, dy, dz := c.X-o.X, c.Y-o.Y, c.Z-o.Z
	return math.Sqrt(dx*dx+dy*dy+dz*dz) + c.H + o.H
}

// Valid reports whether the coordinate has finite components and a
// non-negative height (a negative height would break the metric
// property LatencyTo relies on).
func (c Coord) Valid() error {
	for _, v := range [4]float64{c.X, c.Y, c.Z, c.H} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("latency: non-finite coordinate component %v", v)
		}
	}
	if c.H < 0 {
		return fmt.Errorf("latency: negative coordinate height %v", c.H)
	}
	return nil
}

// CoordStream streams synthetic client coordinates one at a time — the
// coordinate twin of SyntheticInternet, for populations too large to
// hold as a matrix. Nodes scatter normally around cluster centers drawn
// uniformly on the PlaneSize square, and each node's access delay
// (AccessMin plus an exponential tail of mean AccessMean) becomes the
// coordinate height.
//
// The matrix model's pairwise phenomena — transit penalty, lognormal
// noise, detour inflation — have no per-node representation and are not
// modeled: the emitted geometry is a metric by construction. Streams
// are deterministic for a given (config, seed).
type CoordStream struct {
	cfg     SyntheticConfig
	rng     *rand.Rand
	cx, cy  []float64
	emitted int
}

// NewCoordStream validates cfg and prepares a stream of cfg.Nodes
// coordinates.
func NewCoordStream(cfg SyntheticConfig, seed int64) (*CoordStream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	s := &CoordStream{cfg: cfg, rng: rng}
	s.cx = make([]float64, cfg.Clusters)
	s.cy = make([]float64, cfg.Clusters)
	for i := range s.cx {
		s.cx[i] = rng.Float64() * cfg.PlaneSize
		s.cy[i] = rng.Float64() * cfg.PlaneSize
	}
	return s, nil
}

// Len returns the total number of coordinates the stream emits.
func (s *CoordStream) Len() int { return s.cfg.Nodes }

// Next emits the next coordinate; ok is false once cfg.Nodes
// coordinates have been emitted.
func (s *CoordStream) Next() (c Coord, ok bool) {
	if s.emitted >= s.cfg.Nodes {
		return Coord{}, false
	}
	s.emitted++
	cl := s.rng.Intn(s.cfg.Clusters)
	return Coord{
		X: s.cx[cl] + s.rng.NormFloat64()*s.cfg.ClusterStddev,
		Y: s.cy[cl] + s.rng.NormFloat64()*s.cfg.ClusterStddev,
		H: s.cfg.AccessMin + s.rng.ExpFloat64()*s.cfg.AccessMean,
	}, true
}

// GenerateCoords materializes a full coordinate set (n × 32 bytes — a
// million clients fit in 32 MB, against the ~8 TB of a dense float64
// matrix).
func GenerateCoords(cfg SyntheticConfig, seed int64) ([]Coord, error) {
	s, err := NewCoordStream(cfg, seed)
	if err != nil {
		return nil, err
	}
	out := make([]Coord, 0, cfg.Nodes)
	for {
		c, ok := s.Next()
		if !ok {
			return out, nil
		}
		out = append(out, c)
	}
}

// CoordLatency is the latency between nodes i and j of cs as every
// coordinate-built table stores it: 0 when i == j, otherwise the
// lower-index node's LatencyTo the higher-index node, floored at a tiny
// positive value so a matrix of such entries passes Matrix.Validate.
// LatencyTo adds the two heights in argument order, so the order fixes
// the last ulp: one rule for every caller keeps tables built over
// different node subsets bit-identical where they overlap.
func CoordLatency(cs []Coord, i, j int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	return max(cs[i].LatencyTo(cs[j]), 1e-9)
}

// CoordsToMatrix materializes the complete pairwise coordinate-predicted
// latency matrix, entry [i][j] = CoordLatency(cs, i, j). Intended for
// small n only (tests, the n ≤ 2048 comparison against the direct
// heuristics); the whole point of coordinates is not to do this at
// scale.
func CoordsToMatrix(cs []Coord) Matrix {
	m := NewMatrix(len(cs))
	for i := range cs {
		for j := i + 1; j < len(cs); j++ {
			m[i][j] = CoordLatency(cs, i, j)
			m[j][i] = m[i][j]
		}
	}
	return m
}

// MaxReadCoords bounds the coordinate count ReadCoords accepts: 16M
// coordinates is a 512 MB slice; anything claiming more is a corrupt or
// hostile header.
const MaxReadCoords = 16 << 20

// WriteCoords serializes coordinates in a simple text format: a header
// line "coords <n>" followed by one "x y z h" line per coordinate.
func WriteCoords(w io.Writer, cs []Coord) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "coords %d\n", len(cs)); err != nil {
		return err
	}
	buf := make([]byte, 0, 96)
	for _, c := range cs {
		buf = buf[:0]
		buf = strconv.AppendFloat(buf, c.X, 'g', 9, 64)
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, c.Y, 'g', 9, 64)
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, c.Z, 'g', 9, 64)
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, c.H, 'g', 9, 64)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCoords parses the format produced by WriteCoords.
func ReadCoords(r io.Reader) ([]Coord, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	header, err := readLine(br)
	if err != nil {
		return nil, fmt.Errorf("latency: reading coords header: %w", err)
	}
	fields := strings.Fields(header)
	if len(fields) != 2 || fields[0] != "coords" {
		return nil, fmt.Errorf("%w: bad coords header %q", ErrBadMatrix, strings.TrimSpace(header))
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("%w: bad coords count %q", ErrBadMatrix, fields[1])
	}
	if n > MaxReadCoords {
		return nil, fmt.Errorf("%w: coords count %d exceeds limit %d", ErrBadMatrix, n, MaxReadCoords)
	}
	// Grown as lines parse so a hostile header cannot force the full
	// allocation up front.
	out := make([]Coord, 0, min(n, 1<<16))
	for i := 0; i < n; i++ {
		line, err := readLine(br)
		if err != nil {
			return nil, fmt.Errorf("latency: reading coord %d: %w", i, err)
		}
		var c Coord
		parts := strings.Fields(line)
		if len(parts) != 4 {
			return nil, fmt.Errorf("%w: coord %d has %d fields, want 4", ErrBadMatrix, i, len(parts))
		}
		vals := [4]*float64{&c.X, &c.Y, &c.Z, &c.H}
		for j, p := range parts {
			v, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: coord %d field %d: %v", ErrBadMatrix, i, j, err)
			}
			*vals[j] = v
		}
		if err := c.Valid(); err != nil {
			return nil, fmt.Errorf("%w: coord %d: %v", ErrBadMatrix, i, err)
		}
		out = append(out, c)
	}
	return out, nil
}
