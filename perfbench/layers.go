package main

// Workload sets, for the workloads that measure a metric.
var (
	onAll     []string // every workload
	onServed  = []string{"resolve-batch", "resolve-unary", "churn"}
	onResolve = []string{"resolve-batch", "resolve-unary"}
	onChurn   = []string{"churn"}
	onSolve   = []string{"solve-meridian"}
)

// perLayer are the metrics of a traced run, printed for every workload.
// Each names the workloads whose path enters its layer; the others
// print it as 0. Times are medians per operation of the layer's self
// time; LEDGER.md says which end-to-end metric each one should move,
// on which workload.
var perLayer = []metricDef{
	// The client round trip minus the server-side span around
	// ServeHTTP: net/http on both ends plus loopback.
	{"http.self_us", "us", onServed},
	// That server-side span itself: ServeHTTP on the real connection.
	{"service.serve_us", "us", onServed},
	// In-process ServeHTTP passes on the same bodies.
	{"service.chain_us", "us", onServed},         // capserver-default minus bare options
	{"service.codec_us", "us", onResolve},        // bare ServeHTTP minus shard.resolve_us
	{"service.json_us", "us", onChurn},           // bare ServeHTTP minus shard.op_us
	{"service.allocs_per_op", "count", onServed}, // heap allocations per ServeHTTP

	// Resolve passes on the static plane.
	{"shard.view_ns", "ns", onResolve},
	{"shard.resolve_us", "us", onResolve},
	{"shard.fill_us", "us", onResolve},
	{"perfkit.nearest_us", "us", onResolve},

	// Direct Plane calls replaying the churn tape on a fresh plane.
	{"shard.op_us", "us", onChurn},
	{"shard.join_us", "us", onChurn},
	{"shard.leave_us", "us", onChurn},
	{"shard.migrate_us", "us", onChurn},
	{"shard.publish_us", "us", onChurn},
	{"shard.epochs_per_op", "count", onChurn},
	{"core.heap_ops_per_op", "count", onChurn},
	{"core.pair_touches_per_op", "count", onChurn},
	{"core.pair_rescans_per_op", "count", onChurn},
	{"core.ecc_scans_per_op", "count", onChurn},
	{"core.recomputes", "count", onChurn},

	// Process-wide counters over the untraced measured phase.
	{"runtime.alloc_kb_per_op", "KB", onAll},
	{"runtime.gc_cycles_per_kop", "count", onAll},
	{"runtime.gc_cpu_share", "1", onAll},
	{"runtime.cpu_over_wall", "1", onAll},

	// One solve-meridian operation, call by call.
	{"core.instance_ms", "ms", onSolve},
	{"core.lower_bound_ms", "ms", onSolve},
	{"core.maxpath_ms", "ms", onSolve},
	{"assign.ns_ms", "ms", onSolve},
	{"assign.lfb_ms", "ms", onSolve},
	{"assign.greedy_ms", "ms", onSolve},
	{"assign.dg_ms", "ms", onSolve},
	{"assign.ns_cap_ms", "ms", onSolve},
	{"assign.lfb_cap_ms", "ms", onSolve},
	{"assign.greedy_cap_ms", "ms", onSolve},
	{"assign.dg_cap_ms", "ms", onSolve},
	{"assign.ns_d_norm", "1", onSolve},
	{"assign.lfb_d_norm", "1", onSolve},
	{"assign.greedy_d_norm", "1", onSolve},
	{"assign.dg_d_norm", "1", onSolve},
	{"assign.ns_cap_d_norm", "1", onSolve},
	{"assign.lfb_cap_d_norm", "1", onSolve},
	{"assign.greedy_cap_d_norm", "1", onSolve},
	{"assign.dg_cap_d_norm", "1", onSolve},

	// Parts of setup_s, medians over the run's setups.
	{"latency.coords_s", "s", onServed},
	{"shard.new_s", "s", onServed},
	{"shard.join_all_s", "s", onServed},
	{"latency.matrix_s", "s", onSolve},
	{"placement.kcenter_s", "s", onSolve},

	// Diagnostics of the untraced phase, and the traced p50 over it.
	{"driver.p99_ms", "ms", onAll},
	{"driver.samples", "count", onAll},
	{"driver.ops_per_s", "1/s", onAll},
	{"trace.overhead_share", "1", onAll},
}
