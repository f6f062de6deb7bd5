package scale

import (
	"runtime"
	"testing"

	"diacap/internal/obs"
)

func TestPipelineRecordsMetrics(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	clients := testCoords(t, 400, 9)
	servers := testCoords(t, 8, 10)
	reg := obs.NewRegistry()
	res, err := AssignCoords(clients, Options{
		Servers:        servers,
		MaxCells:       50,
		RandomRestarts: 2, // widen the job pool past the worker count
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	if v := reg.Gauge("diacap_scale_clients", "").Value(); v != 400 {
		t.Errorf("clients gauge = %g, want 400", v)
	}
	if v := reg.Gauge("diacap_scale_cells", "").Value(); v != float64(res.Cells) {
		t.Errorf("cells gauge = %g, result has %d", v, res.Cells)
	}
	if v := reg.Gauge("diacap_scale_d_ms", "").Value(); v != res.ExactD {
		t.Errorf("D gauge = %g, result %g", v, res.ExactD)
	}
	if v := reg.Gauge("diacap_scale_solver_workers", "").Value(); v != 4 {
		t.Errorf("workers gauge = %g, want 4", v)
	}
	if v := reg.Gauge("diacap_scale_solver_jobs", "").Value(); v < 5 {
		t.Errorf("jobs gauge = %g, want >= 5 (3 algorithms + 2 restarts)", v)
	}
	if v := reg.Gauge("diacap_scale_worker_utilization", "").Value(); v < 0 || v > 1 {
		t.Errorf("utilization gauge = %g, want within [0,1]", v)
	}
	for _, stage := range []string{"cluster", "solve", "expand"} {
		h := reg.Histogram("diacap_scale_stage_seconds", "",
			obs.SecondsBuckets, obs.L("stage", stage))
		if h.Count() != 1 {
			t.Errorf("stage %q: %d observations, want 1", stage, h.Count())
		}
	}
}

func TestPipelineWithoutMetrics(t *testing.T) {
	// Metrics nil must stay the default and change nothing about the
	// result (guards against instrumentation leaking into behaviour).
	clients := testCoords(t, 200, 11)
	servers := testCoords(t, 5, 12)
	plain, err := AssignCoords(clients, Options{Servers: servers, MaxCells: 30})
	if err != nil {
		t.Fatal(err)
	}
	metered, err := AssignCoords(clients, Options{Servers: servers, MaxCells: 30, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if plain.ExactD != metered.ExactD || plain.Cells != metered.Cells {
		t.Errorf("metrics changed the pipeline result: %+v vs %+v", plain, metered)
	}
	for i := range plain.Assignment {
		if plain.Assignment[i] != metered.Assignment[i] {
			t.Fatalf("assignment differs at client %d with metrics attached", i)
		}
	}
}
