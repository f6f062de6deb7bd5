package scale

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// pipelineFingerprint renders everything about a Result except the
// wall-clock timings, which legitimately vary run to run.
func pipelineFingerprint(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "alg=%s cells=%d dCells=%v exact=%v\n",
		r.Algorithm, r.Cells, r.DCells, r.ExactD)
	fmt.Fprintf(&b, "assignment=%v\n", r.Assignment)
	fmt.Fprintf(&b, "loads=%v\n", r.Loads)
	return b.String()
}

// TestPipelineDeterminism: the full cluster→solve→expand pipeline must
// be byte-identical for a fixed seed across repeated runs and GOMAXPROCS
// settings, which set the worker-pool width — the solver pool fans out
// across goroutines, and the winner pick must not depend on completion
// order.
func TestPipelineDeterminism(t *testing.T) {
	clients := testCoords(t, 3000, 11)
	servers, err := PlaceServers(clients, 6, 11)
	if err != nil {
		t.Fatal(err)
	}
	run := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := AssignCoords(clients, Options{
			Servers:        servers,
			MaxCells:       120,
			Seed:           5,
			RandomRestarts: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pipelineFingerprint(res)
	}

	want := run(4)
	if again := run(4); again != want {
		t.Fatalf("two identical runs diverge:\n--- first\n%s--- second\n%s", want, again)
	}
	for _, procs := range []int{1, 8} {
		if got := run(procs); got != want {
			t.Fatalf("GOMAXPROCS=%d diverges from GOMAXPROCS=4:\n--- baseline\n%s--- got\n%s", procs, want, got)
		}
	}
}
