package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test holds the program to.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// output is the result line of one run.
type output struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
}

// runShort runs one workload for one second with a single setup and
// returns its result line.
func runShort(t *testing.T, workload string, trace bool) output {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: 1, trace: trace, setupRepeats: 1}
	res, err := workloads[workload](cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.write(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d; checks: %v",
			trace, out.Correct, out.Attempted, out.Failed, res.checkFailures)
	}
	return out
}

// TestSelfTest runs every workload of BENCHMARK.json briefly: twice
// untraced with one seed and once traced. Every run must pass its
// output checks and print exactly the metrics BENCHMARK.json names,
// each with its unit. Every metric on the workload's path must be
// measured, and every other one must print 0. The exact metrics must
// repeat bit for bit.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if _, ok := workloads[w.Name]; !ok {
				t.Fatalf("no workload %q", w.Name)
			}
			a := runShort(t, w.Name, false)
			b := runShort(t, w.Name, false)
			checkNamed(t, w.Name, a, s.EndToEnd, endToEnd)
			for _, name := range []string{"d_ms", "d_norm"} {
				x, y := a.Metrics[name].Value, b.Metrics[name].Value
				if math.Float64bits(x) != math.Float64bits(y) {
					t.Errorf("%s differs between two runs with one seed: %v, %v", name, x, y)
				}
			}
			checkNamed(t, w.Name, runShort(t, w.Name, true), s.PerLayer, perLayer)
		})
	}
}

// mayBeZero are the on-path metrics that read 0 when the program works
// as designed: the incremental evaluator never falls back to a full
// eccentricity scan or a recompute.
var mayBeZero = map[string]bool{"core.ecc_scans_per_op": true, "core.recomputes": true}

// checkNamed checks that a run printed the metrics BENCHMARK.json names
// in want, each with its unit, and that of the program's defs, those
// the workload measures are above 0 and the others are 0.
func checkNamed(t *testing.T, workload string, out output, want []struct{ Name, Unit string }, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		v := out.Metrics[d.name].Value
		switch on := d.measuredOn(workload); {
		case on && v <= 0 && !mayBeZero[d.name]:
			t.Errorf("metric %s is on the path of %s but printed %v", d.name, workload, v)
		case !on && v != 0:
			t.Errorf("metric %s is off the path of %s but printed %v", d.name, workload, v)
		}
	}
	if len(out.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(out.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := out.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "churn", "--seconds", "0"},
		{"--workload", "churn", "--trace", "2"},
		{"--workload", "churn", "--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want a non-zero exit and no result", args, code, stdout.String())
		}
	}
}
