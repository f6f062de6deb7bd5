package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// runArgs invokes the CLI entry point and returns its exit code and
// captured stdout.
func runArgs(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	t.Logf("diabench %s\nexit %d\nstdout:\n%sstderr:\n%s",
		strings.Join(args, " "), code, stdout.String(), stderr.String())
	return code, stdout.String()
}

func TestList(t *testing.T) {
	code, out := runArgs(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	for _, want := range []string{"incremental_d/meridian", "lower_bound/mit", "e2e/scale_20k"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output missing %q", want)
		}
	}
}

func TestBadFlags(t *testing.T) {
	if code, _ := runArgs(t, "-bench", "(unclosed"); code != 2 {
		t.Fatalf("bad regexp: exit %d, want 2", code)
	}
	if code, _ := runArgs(t, "-bench", "lower_bound/mit", "-bless"); code != 2 {
		t.Fatalf("-bless without -compare: exit %d, want 2", code)
	}
	if code, _ := runArgs(t, "-bench", "no_such_benchmark"); code != 2 {
		t.Fatalf("empty selection: exit %d, want 2", code)
	}
}

// TestBlessCompareRegress drives the full gate lifecycle on the
// lower_bound/mit pair: bless a baseline, verify a rerun passes the gate,
// then tamper the baseline's speedup upward and verify the rerun is
// reported as a regression with a non-zero exit.
func TestBlessCompareRegress(t *testing.T) {
	if testing.Short() {
		t.Skip("measures real kernels; skipped with -short")
	}
	base := filepath.Join(t.TempDir(), "base.json")
	common := []string{"-bench", "lower_bound/mit$", "-reps", "3", "-warmup", "0"}

	if code, _ := runArgs(t, append(common, "-compare", base, "-bless")...); code != 0 {
		t.Fatalf("bless exit %d", code)
	}
	if code, out := runArgs(t, append(common, "-compare", base)...); code != 0 {
		t.Fatalf("compare against fresh baseline: exit %d\n%s", code, out)
	}

	// A baseline claiming a 100x speedup makes any honest run a >15%
	// ratio regression.
	b, err := loadReport(base)
	if err != nil {
		t.Fatal(err)
	}
	b.Benchmarks[0].Speedup = 100
	if err := writeReport(base, b); err != nil {
		t.Fatal(err)
	}
	code, out := runArgs(t, append(common, "-compare", base)...)
	if code != 1 {
		t.Fatalf("tampered baseline: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "FAIL lower_bound/mit") {
		t.Fatalf("tampered baseline: no FAIL line\n%s", out)
	}
	// A huge threshold waives the same regression.
	if code, _ := runArgs(t, append(common, "-compare", base, "-threshold", "10")...); code != 0 {
		t.Fatalf("threshold 10 should pass, exit %d", code)
	}
}

// TestCompareOrphanRecord checks that a baseline record the -bench
// filter selects but no benchmark produces (a deleted or renamed entry)
// fails the run with exit 2 and names the record, before any benchmark
// runs, while records outside the filter stay out of the check.
func TestCompareOrphanRecord(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.json")
	if err := writeReport(base, &report{Benchmarks: []entry{
		{Name: "lower_bound/mit", MedianNs: 1, RefMedianNs: 1, Speedup: 1},
		{Name: "lower_bound/gone", MedianNs: 1, RefMedianNs: 1, Speedup: 1},
		{Name: "other/gone", MedianNs: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench", "lower_bound", "-compare", base}, &stdout, &stderr); code != 2 {
		t.Fatalf("orphan record: exit %d, want 2\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), `"lower_bound/gone"`) || strings.Contains(stderr.String(), "other/gone") {
		t.Fatalf("stderr should name lower_bound/gone and only it:\n%s", stderr.String())
	}
	if strings.Contains(stderr.String(), "running") {
		t.Fatalf("benchmarks ran before the orphan check:\n%s", stderr.String())
	}

	if testing.Short() {
		return
	}
	// Without lower_bound/gone the baseline gates the run: other/gone
	// lies outside the filter.
	b, err := loadReport(base)
	if err != nil {
		t.Fatal(err)
	}
	b.Benchmarks = []entry{b.Benchmarks[0], b.Benchmarks[2]}
	if err := writeReport(base, b); err != nil {
		t.Fatal(err)
	}
	if code, out := runArgs(t, "-bench", "lower_bound/mit$", "-reps", "1", "-warmup", "0", "-compare", base, "-threshold", "10"); code != 0 {
		t.Fatalf("record outside the filter: exit %d, want 0\n%s", code, out)
	}
}

// TestCompareGate unit-tests the gate rules on synthetic reports.
func TestCompareGate(t *testing.T) {
	kernel := entry{Name: "k", MedianNs: 100, RefMedianNs: 300, Speedup: 3}
	e2e := entry{Name: "e", MedianNs: 1000}
	base := &report{Benchmarks: []entry{kernel, e2e}}

	cases := []struct {
		name    string
		cur     []entry
		absGate bool
		want    int
	}{
		{"identical", []entry{kernel, e2e}, true, 0},
		{"ratio within threshold", []entry{{Name: "k", MedianNs: 110, RefMedianNs: 300, Speedup: 2.72}, e2e}, true, 0},
		{"ratio regression", []entry{{Name: "k", MedianNs: 200, RefMedianNs: 300, Speedup: 1.5}, e2e}, true, 1},
		{"e2e slowdown gated", []entry{kernel, {Name: "e", MedianNs: 1300}}, true, 1},
		{"e2e slowdown waived", []entry{kernel, {Name: "e", MedianNs: 1300}}, false, 0},
		{"kernel median irrelevant when ratio holds", []entry{{Name: "k", MedianNs: 1e6, RefMedianNs: 3e6, Speedup: 3}, e2e}, true, 0},
		{"missing baseline entry is not a failure", []entry{{Name: "new", MedianNs: 5, Speedup: 2}}, true, 0},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		got := compare(&report{Benchmarks: tc.cur}, base, 0.15, tc.absGate, &out)
		if got != tc.want {
			t.Errorf("%s: %d regressions, want %d\n%s", tc.name, got, tc.want, out.String())
		}
	}
}

// TestSummarize pins the order statistics on a known sample.
func TestSummarize(t *testing.T) {
	median, p90, lo, hi := summarize([]float64{5, 1, 4, 2, 3})
	if median != 3 {
		t.Fatalf("median %v, want 3", median)
	}
	if p90 != 5 {
		t.Fatalf("p90 %v, want 5", p90)
	}
	if !(lo < 3 && 3 < hi) {
		t.Fatalf("ci95 [%v, %v] does not cover the mean", lo, hi)
	}
}
