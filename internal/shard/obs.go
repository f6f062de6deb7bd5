package shard

import "diacap/internal/obs"

// Metric names and help strings, declared as package-level consts per
// the obs-preregister discipline: the exposed schema is this block.
const (
	nShardOps = "diacap_shard_events_total"
	hShardOps = "Control-plane mutations processed, by operation."

	nShardRejected = "diacap_shard_rejected_total"
	hShardRejected = "Control-plane mutations rejected, by reason."

	nShardEpoch = "diacap_shard_epoch"
	hShardEpoch = "Epoch of the currently published snapshot."

	nShardD = "diacap_shard_d_ms"
	hShardD = "Exact global D of the published snapshot, in ms."

	nShardActive = "diacap_shard_active_clients"
	hShardActive = "Active (assigned) clients of the published snapshot."

	nShardPublish = "diacap_shard_publish_seconds"
	hShardPublish = "Wall time to publish a snapshot."

	nShardStaleReads = "diacap_shard_stale_reads_total"
	hShardStaleReads = "Snapshot reads that named a retired epoch."
)

// Flight-recorder journal names, package-level consts per the same
// preregister discipline (dialint checks Journal call sites). Exported
// so the service layer and tests can read the journals back by name.
const (
	// JournalFailover records server kills and restarts (kind "kill" /
	// "restart") with the evacuation outcome.
	JournalFailover = "failover"
	// JournalEpoch records every snapshot publication (kind "publish")
	// with the new epoch and D.
	JournalEpoch = "epoch"
	// JournalSuppressed records hysteresis-gated repair proposals; the
	// event kind is the gate reason ("gain" or "budget").
	JournalSuppressed = "suppressed"
)

// planeOp indexes the op label values of the event counter.
type planeOp int

const (
	opJoin planeOp = iota
	opLeave
	opMigrate
	opKill
	opRestart
	opDrift
)

// opLabels are the op label values, indexed by planeOp.
var opLabels = [...]string{
	opJoin:    "join",
	opLeave:   "leave",
	opMigrate: "migrate",
	opKill:    "kill",
	opRestart: "restart",
	opDrift:   "drift",
}

// rejectReason indexes the reason label values of the rejection
// counter.
type rejectReason int

const (
	rejUnknownClient rejectReason = iota
	rejNoCapacity
	rejConflict
	rejServerDown
	rejUnknownServer
)

// reasonLabels are the reason label values, indexed by rejectReason.
var reasonLabels = [...]string{
	rejUnknownClient: "unknown_client",
	rejNoCapacity:    "no_capacity",
	rejConflict:      "conflict",
	rejServerDown:    "server_down",
	rejUnknownServer: "unknown_server",
}

// planeMetrics resolves the plane's instruments once at construction,
// the labelled counters included, so a write pays no label rendering
// or series lookup. A nil registry yields a nil planeMetrics, and every
// method is nil-safe, so the plane works unmetered.
type planeMetrics struct {
	events     [len(opLabels)]*obs.Counter
	rejects    [len(reasonLabels)]*obs.Counter
	epoch      *obs.Gauge
	dms        *obs.Gauge
	active     *obs.Gauge
	publish    *obs.Histogram
	staleReads *obs.Counter
}

func newPlaneMetrics(reg *obs.Registry) *planeMetrics {
	if reg == nil {
		return nil
	}
	m := &planeMetrics{
		epoch:      reg.Gauge(nShardEpoch, hShardEpoch),
		dms:        reg.Gauge(nShardD, hShardD),
		active:     reg.Gauge(nShardActive, hShardActive),
		publish:    reg.Histogram(nShardPublish, hShardPublish, obs.SecondsBuckets),
		staleReads: reg.Counter(nShardStaleReads, hShardStaleReads),
	}
	m.events, m.rejects = registerCounters(reg)
	return m
}

// registerCounters resolves the event counter of every op label and the
// rejection counter of every reason label.
func registerCounters(reg *obs.Registry) (events [len(opLabels)]*obs.Counter, rejects [len(reasonLabels)]*obs.Counter) {
	for op, l := range opLabels {
		events[op] = reg.Counter(nShardOps, hShardOps, obs.L("op", l))
	}
	for r, l := range reasonLabels {
		rejects[r] = reg.Counter(nShardRejected, hShardRejected, obs.L("reason", l))
	}
	return events, rejects
}

// Preregister registers every shard metric, including each op label of
// the event counters, so scrapes expose the full schema before traffic.
func Preregister(reg *obs.Registry) {
	if reg == nil {
		return
	}
	registerCounters(reg)
	reg.Gauge(nShardEpoch, hShardEpoch)
	reg.Gauge(nShardD, hShardD)
	reg.Gauge(nShardActive, hShardActive)
	reg.Histogram(nShardPublish, hShardPublish, obs.SecondsBuckets)
	reg.Counter(nShardStaleReads, hShardStaleReads)
}

func (m *planeMetrics) event(op planeOp) {
	if m == nil {
		return
	}
	m.events[op].Inc()
}

func (m *planeMetrics) rejected(r rejectReason) {
	if m == nil {
		return
	}
	m.rejects[r].Inc()
}

// published records the post-publish gauges and the publish latency.
// It is the one blessed destination for wall-clock durations measured
// around publishLocked: metrics only, never replayed state.
//
//dialint:wallclock-ok
func (m *planeMetrics) published(s *Snapshot, seconds float64) {
	if m == nil {
		return
	}
	m.epoch.Set(float64(s.Epoch))
	m.dms.Set(s.D)
	m.active.Set(float64(s.Active))
	m.publish.Observe(seconds)
}

func (m *planeMetrics) staleRead() {
	if m == nil {
		return
	}
	m.staleReads.Inc()
}
