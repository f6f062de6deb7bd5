package bench_test

// Golden-file regression tests for the figure CSVs. The scaled test
// regenerates every figure at a fixed 160-node configuration and diffs
// it against the checked-in results/golden/*.csv; any change to an
// algorithm, evaluator, or kernel that perturbs a published number
// shows up as a diff here. Bless intentional changes with
//
//	go test ./internal/bench -run GoldenFiguresScaled -update-golden
//
// The full-scale variant (DIACAP_GOLDEN_FULL=1) replays EXPERIMENTS.md's
// `capbench -fig all -full -runs 30` configuration and diffs the
// published results/figure*.csv themselves; it takes tens of minutes
// and is opt-in.
//
// Tolerance: CSV cells are rendered with %.6g, i.e. 6 significant
// digits. Parsed values must agree to 1e-5 relative (one part in the
// 5th digit — looser than the printed precision, so pure formatting
// jitter can never fail the test, while any real change to a printed
// digit is caught) with 1e-9 absolute slack for exact zeros.

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"diacap/internal/bench"
	"diacap/internal/latency"
	"diacap/internal/placement"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite results/golden/*.csv from this run instead of diffing")

const (
	goldenRelTol = 1e-5
	goldenAbsTol = 1e-9
)

// goldenJob mirrors one cmd/capbench figure job.
type goldenJob struct {
	id  string
	run func() (*bench.Figure, error)
}

// figureJobs reproduces capbench's Figure 7-10 job list for a given
// configuration.
func figureJobs(opts bench.Options, servers int, counts []int) []goldenJob {
	return []goldenJob{
		{"7a", func() (*bench.Figure, error) { return bench.Figure7(opts, placement.Random, counts) }},
		{"7b", func() (*bench.Figure, error) { return bench.Figure7(opts, placement.KCenterA, counts) }},
		{"7c", func() (*bench.Figure, error) { return bench.Figure7(opts, placement.KCenterB, counts) }},
		{"8", func() (*bench.Figure, error) { return bench.Figure8(opts, servers) }},
		{"9", func() (*bench.Figure, error) { return bench.Figure9(opts, servers) }},
		{"10a", func() (*bench.Figure, error) { return bench.Figure10(opts, placement.Random, servers, nil) }},
		{"10b", func() (*bench.Figure, error) { return bench.Figure10(opts, placement.KCenterA, servers, nil) }},
		{"10c", func() (*bench.Figure, error) { return bench.Figure10(opts, placement.KCenterB, servers, nil) }},
	}
}

// scaledParams derives capbench's scaled server parameters for n nodes
// (the same arithmetic as capbench's rescale).
func scaledParams(n int) (servers int, counts []int) {
	ratio := float64(n) / float64(latency.MeridianNodes)
	scale := func(k int) int {
		v := int(float64(k)*ratio + 0.5)
		if v < 2 {
			v = 2
		}
		return v
	}
	seen := map[int]bool{}
	for _, k := range []int{20, 30, 40, 50, 60, 70, 80, 90, 100} {
		if v := scale(k); !seen[v] {
			seen[v] = true
			counts = append(counts, v)
		}
	}
	return scale(80), counts
}

func renderCSV(t *testing.T, fig *bench.Figure) string {
	t.Helper()
	var buf bytes.Buffer
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// compareCSV diffs two figure CSVs field by field: string columns must
// match exactly, numeric columns to the documented tolerance.
func compareCSV(t *testing.T, got, want, goldenPath string) {
	t.Helper()
	gotLines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	wantLines := strings.Split(strings.TrimRight(want, "\n"), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d lines generated, golden has %d", goldenPath, len(gotLines), len(wantLines))
	}
	for ln, wantLine := range wantLines {
		gotLine := gotLines[ln]
		if ln == 0 {
			if gotLine != wantLine {
				t.Fatalf("%s: header %q != golden %q", goldenPath, gotLine, wantLine)
			}
			continue
		}
		gf, wf := strings.Split(gotLine, ","), strings.Split(wantLine, ",")
		if len(gf) != len(wf) {
			t.Fatalf("%s line %d: %d fields != golden %d fields\ngot:  %s\nwant: %s",
				goldenPath, ln+1, len(gf), len(wf), gotLine, wantLine)
		}
		for col, w := range wf {
			g := gf[col]
			if col < 2 { // figure id, series name
				if g != w {
					t.Fatalf("%s line %d col %d: %q != golden %q", goldenPath, ln+1, col, g, w)
				}
				continue
			}
			if g == w { // covers empty stddev cells and identical renderings
				continue
			}
			gv, gerr := strconv.ParseFloat(g, 64)
			wv, werr := strconv.ParseFloat(w, 64)
			if gerr != nil || werr != nil {
				t.Fatalf("%s line %d col %d: unparseable cells %q vs %q", goldenPath, ln+1, col, g, w)
			}
			if diff := math.Abs(gv - wv); diff > goldenAbsTol+goldenRelTol*math.Max(math.Abs(gv), math.Abs(wv)) {
				t.Fatalf("%s line %d col %d: %v deviates from golden %v (|Δ|=%g, tol %g rel + %g abs)\ngot:  %s\nwant: %s",
					goldenPath, ln+1, col, gv, wv, diff, goldenRelTol, goldenAbsTol, gotLine, wantLine)
			}
		}
	}
}

func runGolden(t *testing.T, jobs []goldenJob, dir string, update bool) {
	for _, j := range jobs {
		t.Run("figure"+j.id, func(t *testing.T) {
			fig, err := j.run()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "figure"+j.id+".csv")
			got := renderCSV(t, fig)
			if update {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("blessed %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v — bless the goldens with: go test ./internal/bench -run GoldenFiguresScaled -update-golden", err)
			}
			compareCSV(t, got, string(want), path)
		})
	}
}

// TestGoldenFiguresScaled regenerates Figures 7-10 at a fixed 160-node
// scaled configuration (seeded, 4 runs) and diffs them against the
// checked-in goldens.
func TestGoldenFiguresScaled(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates eight figures; skipped with -short")
	}
	const nodes = 160
	servers, counts := scaledParams(nodes)
	opts := bench.Options{Matrix: latency.ScaledLike(nodes, 1), Seed: 1, Runs: 4}
	runGolden(t, figureJobs(opts, servers, counts), filepath.Join("..", "..", "results", "golden"), *updateGolden)
}

// TestGoldenFiguresFull replays EXPERIMENTS.md's full-scale
// configuration (MeridianLike(1), 80 servers, 30 runs) against the
// published results/figure*.csv. About 35 s wall and 1 min of CPU on a
// 2-vCPU Intel Xeon VM; opt in with DIACAP_GOLDEN_FULL=1. -update-golden
// is deliberately ignored here: the published CSVs are blessed by
// cmd/capbench, not by this test.
func TestGoldenFiguresFull(t *testing.T) {
	if os.Getenv("DIACAP_GOLDEN_FULL") == "" {
		t.Skip("full-scale golden replay is opt-in: set DIACAP_GOLDEN_FULL=1")
	}
	opts := bench.Options{Matrix: latency.MeridianLike(1), Seed: 1, Runs: 30}
	counts := []int{20, 30, 40, 50, 60, 70, 80, 90, 100}
	runGolden(t, figureJobs(opts, 80, counts), filepath.Join("..", "..", "results"), false)
}

// TestScaledParamsMatchCapbench pins the scaled derivation against the
// values capbench produces for 160 nodes, so the golden configuration
// cannot silently drift from the CLI's.
func TestScaledParamsMatchCapbench(t *testing.T) {
	servers, counts := scaledParams(160)
	if servers != 7 {
		t.Fatalf("servers = %d, want 7", servers)
	}
	want := []int{2, 3, 4, 5, 6, 7, 8, 9}
	if fmt.Sprint(counts) != fmt.Sprint(want) {
		t.Fatalf("counts = %v, want %v", counts, want)
	}
}
