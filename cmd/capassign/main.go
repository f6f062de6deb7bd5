// Command capassign computes client assignments for one deployment and
// reports the resulting interactivity: the maximum interaction-path
// length D (the minimum feasible lag δ), the normalized interactivity
// against the theoretical lower bound, server load balance, and runtime.
//
// Usage:
//
//	capassign -preset mit -placement k-center-b -servers 40
//	capassign -data meridian.lat -servers 80 -alg Greedy -capacity 50
//
// With -coords (or -coords-n) it switches to the million-client
// coordinate pipeline (internal/scale): clients are network coordinates
// (latgen -coords-out), no pairwise matrix is materialized, and the
// report gives the winning cell-level D and the exact client-level D of
// the assignment:
//
//	latgen -coords-out clients.coords -n 1000000
//	capassign -coords clients.coords -servers 64 -cells 2000
//	capassign -coords-n 1000000 -servers 64 -capacity 20000
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"diacap/internal/assign"
	"diacap/internal/core"
	"diacap/internal/latency"
	"diacap/internal/placement"
	"diacap/internal/scale"
)

func main() {
	var (
		data      = flag.String("data", "", "latency matrix file (latgen format)")
		preset    = flag.String("preset", "", `generate a data set instead: "meridian", "mit", or a node count like "400"`)
		seed      = flag.Int64("seed", 1, "random seed (data generation and random placement)")
		strategy  = flag.String("placement", "k-center-b", "server placement: random | k-center-a | k-center-b")
		servers   = flag.Int("servers", 20, "number of servers")
		algName   = flag.String("alg", "all", `algorithm name or "all"`)
		capacity  = flag.Int("capacity", 0, "per-server client capacity (0 = uncapacitated)")
		showLoads = flag.Bool("loads", false, "print per-server load distribution")

		coords   = flag.String("coords", "", "coordinate mode: client coordinates file (latgen -coords-out format)")
		coordsN  = flag.Int("coords-n", 0, "coordinate mode: generate this many synthetic client coordinates instead of reading a file")
		cells    = flag.Int("cells", 0, "coordinate mode: max cluster cells (0 = default 2000)")
		restarts = flag.Int("restarts", 2, "coordinate mode: seeded weighted-random solver restarts")
	)
	flag.Parse()

	if *coords != "" || *coordsN > 0 {
		runCoords(coordsOptions{
			file:     *coords,
			n:        *coordsN,
			seed:     *seed,
			servers:  *servers,
			capacity: *capacity,
			cells:    *cells,
			restarts: *restarts,
			loads:    *showLoads,
		})
		return
	}

	m, err := loadMatrix(*data, *preset, *seed)
	if err != nil {
		fatal(err)
	}

	rng := rand.New(rand.NewSource(*seed))
	placed, err := placement.Place(placement.Strategy(*strategy), m, *servers, rng)
	if err != nil {
		fatal(err)
	}
	clients := make([]int, m.Len())
	for i := range clients {
		clients[i] = i
	}
	in, err := core.NewInstanceTrusted(m, placed, clients)
	if err != nil {
		fatal(err)
	}
	var caps core.Capacities
	if *capacity > 0 {
		caps = core.UniformCapacities(len(placed), *capacity)
	}

	var algs []assign.Algorithm
	if *algName == "all" {
		algs = assign.All()
	} else {
		alg, err := assign.ByName(*algName)
		if err != nil {
			fatal(err)
		}
		algs = []assign.Algorithm{alg}
	}

	fmt.Printf("nodes=%d servers=%d placement=%s capacity=%s\n",
		m.Len(), len(placed), *strategy, capStr(*capacity))
	lbStart := time.Now()
	lb := in.LowerBound()
	fmt.Printf("lower bound: %.3f ms (computed in %v)\n\n", lb, time.Since(lbStart).Round(time.Millisecond))

	fmt.Printf("%-22s %12s %12s %10s\n", "algorithm", "D (ms)", "normalized", "runtime")
	for _, alg := range algs {
		start := time.Now()
		a, err := alg.Assign(in, caps)
		elapsed := time.Since(start)
		if err != nil {
			fmt.Printf("%-22s failed: %v\n", alg.Name(), err)
			continue
		}
		d := in.MaxInteractionPath(a)
		fmt.Printf("%-22s %12.3f %12.4f %10s\n", alg.Name(), d, d/lb, elapsed.Round(time.Microsecond))
		if *showLoads {
			printLoads(in, a)
		}
	}
}

type coordsOptions struct {
	file                 string
	n, servers, capacity int
	cells, restarts      int
	seed                 int64
	loads                bool
}

// runCoords is the coordinate-mode entry point: ingest (or generate)
// client coordinates, place servers by K-center over the population,
// and run the internal/scale pipeline.
func runCoords(o coordsOptions) {
	if o.file != "" && o.n > 0 {
		fatal(fmt.Errorf("-coords and -coords-n are mutually exclusive"))
	}
	start := time.Now()
	var clients []latency.Coord
	var err error
	if o.file != "" {
		f, err2 := os.Open(o.file)
		if err2 != nil {
			fatal(err2)
		}
		clients, err = latency.ReadCoords(f)
		f.Close()
	} else {
		clients, err = latency.GenerateCoords(latency.DefaultConfig(o.n), o.seed)
	}
	if err != nil {
		fatal(err)
	}
	ingestMs := time.Since(start)

	start = time.Now()
	placed, err := scale.PlaceServers(clients, o.servers, o.seed)
	if err != nil {
		fatal(err)
	}
	placeMs := time.Since(start)

	var caps core.Capacities
	if o.capacity > 0 {
		caps = core.UniformCapacities(len(placed), o.capacity)
	}
	res, err := scale.AssignCoords(clients, scale.Options{
		Servers:        placed,
		Capacities:     caps,
		MaxCells:       o.cells,
		RandomRestarts: o.restarts,
		Seed:           o.seed,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("clients=%d servers=%d (k-center over coords) cells=%d capacity=%s\n",
		len(clients), len(placed), res.Cells, capStr(o.capacity))
	fmt.Printf("ingest %v, place %v, cluster %v, solve %v (winner %s), expand %v\n",
		ingestMs.Round(time.Millisecond), placeMs.Round(time.Millisecond),
		msDur(res.ClusterMs), msDur(res.SolveMs), res.Algorithm, msDur(res.ExpandMs))
	fmt.Printf("cell-level D:     %.3f ms\n", res.DCells)
	fmt.Printf("exact D:          %.3f ms\n", res.ExactD)
	if o.loads {
		printLoadsSlice(res.Loads)
	}
}

func msDur(ms float64) time.Duration {
	return (time.Duration(ms*1e6) * time.Nanosecond).Round(time.Millisecond)
}

func loadMatrix(path, preset string, seed int64) (latency.Matrix, error) {
	switch {
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return latency.Read(f)
	case preset == "meridian":
		return latency.MeridianLike(seed), nil
	case preset == "mit":
		return latency.MITLike(seed), nil
	case preset != "":
		var n int
		if _, err := fmt.Sscanf(preset, "%d", &n); err != nil || n < 2 {
			return nil, fmt.Errorf("bad preset %q", preset)
		}
		return latency.ScaledLike(n, seed), nil
	default:
		return nil, fmt.Errorf("one of -data or -preset is required")
	}
}

func printLoads(in *core.Instance, a core.Assignment) {
	printLoadsSlice(in.Loads(a))
}

func printLoadsSlice(loads []int) {
	sorted := append([]int(nil), loads...)
	sort.Ints(sorted)
	used := 0
	for _, l := range loads {
		if l > 0 {
			used++
		}
	}
	fmt.Printf("    loads: used %d/%d servers, min %d, median %d, max %d\n",
		used, len(loads), sorted[0], sorted[len(sorted)/2], sorted[len(sorted)-1])
}

func capStr(c int) string {
	if c <= 0 {
		return "unlimited"
	}
	return fmt.Sprint(c)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "capassign:", err)
	os.Exit(1)
}
