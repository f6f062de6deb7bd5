package diacap

// Extension surfaces beyond the paper: online assignment under churn,
// Vivaldi latency estimation, and timewarp state repair. See DESIGN.md §7
// and EXPERIMENTS.md's extension section.

import (
	"diacap/internal/bench"
	"diacap/internal/coords"
	"diacap/internal/core"
	"diacap/internal/dia"
	"diacap/internal/dynamic"
	"diacap/internal/live"
)

// Timewarp repair (Section II-E's repair mechanisms, implemented).
const (
	// RepairNone applies late operations on arrival; replicas diverge.
	RepairNone = dia.RepairNone
	// RepairTimewarp rolls back and re-executes late operations at their
	// correct simulation time; replicas re-converge at the cost of
	// user-visible artifacts.
	RepairTimewarp = dia.RepairTimewarp
	// RepairTSS runs Trailing State Synchronization: optimistic immediate
	// execution (interaction after pure network latency) with a trailing
	// authoritative state at lag δ repairing misorderings.
	RepairTSS = dia.RepairTSS
)

// Churn / online assignment.
type (
	// ChurnConfig parameterizes the churn workload generator.
	ChurnConfig = dynamic.ChurnConfig
	// ChurnEvent is one join or leave.
	ChurnEvent = dynamic.Event
	// OnlineStrategy is an online assignment policy.
	OnlineStrategy = dynamic.Strategy
	// ChurnResult scores one strategy over one trace.
	ChurnResult = dynamic.Result
)

// GenerateChurn produces a time-sorted join/leave trace.
func GenerateChurn(cfg ChurnConfig, seed int64) ([]ChurnEvent, error) {
	return dynamic.GenerateChurn(cfg, seed)
}

// NearestJoin is the zero-disruption online baseline: join to the nearest
// unsaturated server, never reassign.
func NearestJoin(in *Instance) OnlineStrategy { return dynamic.NewNearestJoin(in) }

// GreedyJoin places each join on the server minimizing the resulting D.
func GreedyJoin(in *Instance) OnlineStrategy { return dynamic.NewGreedyJoin(in) }

// GreedyJoinRepair is GreedyJoin plus up to movesPerEvent
// Distributed-Greedy-style reassignments after every event.
func GreedyJoinRepair(in *Instance, movesPerEvent int) OnlineStrategy {
	return dynamic.NewGreedyJoinRepair(in, movesPerEvent)
}

// PeriodicReoptimize re-solves the active population from scratch every
// period milliseconds — the maximum-quality, maximum-disruption end of
// the online spectrum.
func PeriodicReoptimize(in *Instance, period float64) OnlineStrategy {
	return dynamic.NewPeriodicReoptimize(in, period)
}

// SimulateChurn replays a churn trace against an online strategy.
func SimulateChurn(in *Instance, caps Capacities, events []ChurnEvent, horizon float64, strat OnlineStrategy) (*ChurnResult, error) {
	return dynamic.Simulate(in, caps, events, horizon, strat)
}

// Vivaldi network coordinates.
type (
	// VivaldiConfig parameterizes the coordinate system.
	VivaldiConfig = coords.Config
	// Vivaldi is a set of network coordinates.
	Vivaldi = coords.System
)

// NewVivaldi creates a coordinate system for n nodes with the standard
// parameters (3 dimensions + height, c_e = c_c = 0.25).
func NewVivaldi(n int, seed int64) (*Vivaldi, error) {
	return coords.New(coords.DefaultConfig(), n, seed)
}

// VivaldiRelativeErrors returns |est − true| / true over all node pairs.
func VivaldiRelativeErrors(est, truth Matrix) ([]float64, error) {
	return coords.RelativeErrors(est, truth)
}

// Incremental evaluation.

// NewEvaluator builds an incremental D evaluator over the assignment; see
// core.Evaluator for its moves and closed-form PeekJoin pricing.
func NewEvaluator(in *Instance, a Assignment) (*core.Evaluator, error) {
	return in.NewEvaluator(a)
}

// Extension experiment figures.

// ExtChurn compares online strategies across churn intensities.
func ExtChurn(opts BenchOptions, numServers int, sessionLengths []float64) (*FigureResult, error) {
	return bench.ExtChurn(opts, numServers, sessionLengths)
}

// ExtMeasurement quantifies the cost of assigning on Vivaldi estimates.
func ExtMeasurement(opts BenchOptions, numServers int, sampleBudgets []int) (*FigureResult, error) {
	return bench.ExtMeasurement(opts, numServers, sampleBudgets)
}

// ExtTimewarp sweeps δ and reports the timewarp repair cost.
func ExtTimewarp(opts BenchOptions, numServers int, deltaFactors []float64) (*FigureResult, error) {
	return bench.ExtTimewarp(opts, numServers, deltaFactors)
}

// ExtObjective contrasts the max-interaction and average-interaction
// objectives across algorithms.
func ExtObjective(opts BenchOptions, numServers int) (*FigureResult, error) {
	return bench.ExtObjective(opts, numServers)
}

// Live deployment: the paper's architecture over real TCP sockets with
// latency injection (package live).
type (
	// LiveClusterConfig configures a localhost deployment.
	LiveClusterConfig = live.ClusterConfig
	// LiveCluster is a running deployment.
	LiveCluster = live.Cluster
	// LiveResult aggregates a finished live run.
	LiveResult = live.ClusterResult
)

// StartLiveCluster boots one TCP server per instance server and one TCP
// client per launched instance client, interconnected with injected
// per-pair latencies, running the full operation pipeline in real time.
func StartLiveCluster(cfg LiveClusterConfig) (*LiveCluster, error) {
	return live.StartCluster(cfg)
}
