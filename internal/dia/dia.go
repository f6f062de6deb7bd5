// Package dia is a discrete-event runtime for continuous distributed
// interactive applications under the paper's system model (Section II).
//
// It executes the full interaction pipeline over a simulated network:
// a client issues an operation at its simulation time t and sends it to
// its assigned server; the server forwards it to all other servers; every
// server executes the operation when its own simulation time reaches
// t + δ (the constant lag integrating the consistency and fairness
// requirements) and immediately sends the resulting state update to its
// clients. Simulation times follow the Section II-C construction: all
// clients are mutually synchronized and each server runs ahead of the
// clients by its core.Offsets value.
//
// The runtime observes, rather than assumes, the paper's analysis:
//
//   - with δ = D (the maximum interaction-path length) nothing is ever
//     late, every server executes every operation at the same simulation
//     time in issuance order (consistency + fairness), and every client
//     observes an interaction time of exactly δ;
//   - with δ < D, operations arrive after their execution deadline at some
//     server or state updates arrive after their presentation deadline at
//     some client — the constraint violations of Section II-C — and the
//     runtime counts and sizes them.
package dia

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"diacap/internal/core"
	"diacap/internal/sim"
)

// timeEps absorbs floating-point noise when comparing virtual times.
const timeEps = 1e-6

// Operation is one user-initiated operation of the DIA.
type Operation struct {
	// ID is unique per workload.
	ID int
	// Client is the issuing client (instance-local index).
	Client int
	// IssueTime is the client's simulation time of issuance. Clients are
	// mutually synchronized, so this is also the wall-clock issue time.
	IssueTime float64
}

// Config configures one DIA run.
type Config struct {
	// Instance and Assignment define the deployment.
	Instance   *core.Instance
	Assignment core.Assignment
	// Delta is the constant execution lag δ. Use Offsets.D (= D) for the
	// minimum feasible value.
	Delta float64
	// Offsets are the server simulation-time offsets. Nil computes the
	// Section II-C offsets from the assignment.
	Offsets *core.Offsets
	// Workload is the operation schedule, sorted by IssueTime.
	Workload []Operation
	// Latency optionally overrides the message latency (e.g. a jittered
	// sampler), keyed by node index; nil uses the instance's
	// client-server and server-server latencies verbatim.
	Latency sim.LatencyFunc
	// Drop, if non-nil, is consulted for every message; returning true
	// silently drops it. For failure-injection experiments: the
	// consistency audit detects servers that missed operations.
	Drop func(msg sim.Message) bool
	// Checkpoints are simulation times (ascending) at which every
	// replica's world-state digest is compared (see state.go). Nil audits
	// once, after the last event.
	Checkpoints []float64
	// Repair selects what happens when an operation or update misses its
	// deadline (Section II-E): RepairNone executes/presents it as soon as
	// it arrives, permanently diverging the replicas; RepairTimewarp
	// rolls the replica back and re-executes the operation at its correct
	// simulation time, restoring consistency and fairness at the cost of
	// user-visible artifacts (counted in the Result).
	Repair RepairMode
}

// RepairMode selects the late-operation policy.
type RepairMode int

const (
	// RepairNone applies late operations at arrival time (no rollback).
	RepairNone RepairMode = iota
	// RepairTimewarp rolls back and re-executes late operations at their
	// correct simulation time (Mauve et al.'s timewarp / local lag).
	RepairTimewarp
	// RepairTSS models Trailing State Synchronization (Cronin et al.):
	// the *leading* state executes every operation immediately on arrival
	// — so state updates reach clients after pure network latency, with
	// no artificial lag — while a *trailing* state at lag δ defines the
	// authoritative timeline and repairs the leading state whenever
	// optimistic execution got the order wrong. The runtime reports
	// optimistic (arrival-based) interaction times; the consistency,
	// fairness, and state audits run on the repaired trailing timeline;
	// Rollbacks/RolledBackOps count the leading-state corrections and
	// ClientArtifacts the client-visible reorderings.
	RepairTSS
)

// Result aggregates everything observed during a run.
type Result struct {
	// OpsIssued is the number of operations injected.
	OpsIssued int
	// Executions is the number of (operation, server) executions.
	Executions int
	// UpdatesDelivered is the number of (operation, client) state updates.
	UpdatesDelivered int

	// ServerLate counts constraint (i) violations: an operation reached a
	// server after the server's simulation time passed issue + δ.
	ServerLate int
	// MaxServerLateness is the worst such lateness in milliseconds.
	MaxServerLateness float64
	// ClientLate counts constraint (ii) violations: a state update
	// reached a client after the client's simulation time passed
	// issue + δ.
	ClientLate int
	// MaxClientLateness is the worst such lateness in milliseconds.
	MaxClientLateness float64

	// ConsistencyViolations counts (operation, server-pair) disagreements
	// in execution simulation time — states would diverge at the same
	// simulation time.
	ConsistencyViolations int
	// FairnessViolations counts per-server inversions between issuance
	// order and execution order, plus executions whose lag differs
	// from δ.
	FairnessViolations int
	// ServerStateMismatches counts (server, checkpoint) pairs whose
	// world-state digest differs from the reference replica's, and
	// ClientStateMismatches the same for client replicas (a late state
	// update shows up here as the visible artifact).
	ServerStateMismatches int
	ClientStateMismatches int

	// Timewarp repair accounting (RepairTimewarp only). Rollbacks counts
	// server-side rollback events; RolledBackOps the already-executed
	// operations each rollback had to re-execute; MaxRollbackDepth the
	// deepest rollback in simulation-time milliseconds. ClientArtifacts
	// counts updates presented retroactively at a client — the on-screen
	// glitches the paper warns about ("an opponent that has been beaten
	// stands up again and continues to fight").
	Rollbacks        int
	RolledBackOps    int
	MaxRollbackDepth float64
	ClientArtifacts  int

	// InteractionTimes holds, for every delivered (operation, client)
	// pair, the observed interaction time: the receiving client's
	// presentation simulation time minus the issuance simulation time.
	// On-time deliveries present exactly at issue + δ.
	InteractionTimes []float64
	// MeanInteraction and MaxInteraction summarize InteractionTimes.
	MeanInteraction float64
	MaxInteraction  float64
}

// Clean reports whether the run had no violations of any kind.
func (r *Result) Clean() bool {
	return r.ServerLate == 0 && r.ClientLate == 0 &&
		r.ConsistencyViolations == 0 && r.FairnessViolations == 0 &&
		r.ServerStateMismatches == 0 && r.ClientStateMismatches == 0
}

// opMsg carries an operation; fromClient marks the first hop.
type opMsg struct {
	op         Operation
	fromClient bool
}

// updateMsg carries a state update for one executed operation.
type updateMsg struct {
	op          Operation
	execSimTime float64
}

// execRecord is one execution at one server.
type execRecord struct {
	op          Operation
	execSimTime float64
}

// server is the per-server actor.
type server struct {
	r       *runtime
	idx     int   // instance-local server index
	clients []int // instance-local client indices assigned here
	ahead   float64
	seen    map[int]bool
	log     []execRecord
}

// appliedRecord is one state update as applied at a client: effective at
// its presentation simulation time.
type appliedRecord struct {
	op              Operation
	presentationSim float64
}

// client is the per-client actor.
type client struct {
	r       *runtime
	idx     int
	applied []appliedRecord
	// lastIssue tracks the issuance time of the most recent update for
	// detecting client-visible reorderings in optimistic (TSS) mode.
	lastIssue float64
}

// runtime wires the actors together.
type runtime struct {
	cfg     Config
	eng     *sim.Engine
	net     *sim.Network
	servers []*server
	clients []*client
	res     *Result
}

// node id scheme: servers occupy [0, ns); clients occupy [ns, ns+nc).
func (r *runtime) serverID(k int) int { return k }
func (r *runtime) clientID(i int) int { return r.cfg.Instance.NumServers() + i }

// Run executes the configured DIA and returns the observations.
func Run(cfg Config) (*Result, error) {
	in := cfg.Instance
	if in == nil {
		return nil, errors.New("dia: nil instance")
	}
	if err := in.Validate(cfg.Assignment); err != nil {
		return nil, fmt.Errorf("dia: %w", err)
	}
	if cfg.Delta <= 0 || math.IsNaN(cfg.Delta) || math.IsInf(cfg.Delta, 0) {
		return nil, fmt.Errorf("dia: delta = %v, want positive finite", cfg.Delta)
	}
	if len(cfg.Workload) == 0 {
		return nil, errors.New("dia: empty workload")
	}
	for i, op := range cfg.Workload {
		if op.Client < 0 || op.Client >= in.NumClients() {
			return nil, fmt.Errorf("dia: operation %d from client %d out of range", op.ID, op.Client)
		}
		if op.IssueTime < 0 || math.IsNaN(op.IssueTime) {
			return nil, fmt.Errorf("dia: operation %d has issue time %v", op.ID, op.IssueTime)
		}
		if i > 0 && op.IssueTime < cfg.Workload[i-1].IssueTime {
			return nil, fmt.Errorf("dia: workload not sorted at index %d", i)
		}
	}
	if cfg.Offsets == nil {
		off, err := in.ComputeOffsets(cfg.Assignment)
		if err != nil {
			return nil, fmt.Errorf("dia: %w", err)
		}
		cfg.Offsets = off
	}
	if len(cfg.Offsets.ServerAhead) != in.NumServers() {
		return nil, fmt.Errorf("dia: offsets cover %d servers, want %d", len(cfg.Offsets.ServerAhead), in.NumServers())
	}

	ns, nc := in.NumServers(), in.NumClients()
	r := &runtime{cfg: cfg, eng: &sim.Engine{}, res: &Result{}}

	// Actor ids are servers 0..ns-1, then clients. Messages travel only
	// client→server, server→server and server→client, so the default
	// latency reads the instance's two tables, which are symmetric for
	// every matrix NewInstance accepts and every generator.
	lat := func(u, v int) float64 {
		switch {
		case u < ns && v < ns:
			return in.ServerServerDist(u, v)
		case u < ns:
			return in.ClientServerDist(v-ns, u)
		default:
			return in.ClientServerDist(u-ns, v)
		}
	}
	if cfg.Latency != nil {
		nodeOf := make([]int, ns+nc)
		for k := 0; k < ns; k++ {
			nodeOf[k] = in.ServerNode(k)
		}
		for i := 0; i < nc; i++ {
			nodeOf[ns+i] = in.ClientNode(i)
		}
		lat = func(u, v int) float64 { return cfg.Latency(nodeOf[u], nodeOf[v]) }
	}
	net, err := sim.NewNetwork(r.eng, func(u, v int) float64 {
		if u == v {
			return 0
		}
		return lat(u, v)
	})
	if err != nil {
		return nil, err
	}
	net.DropFunc = cfg.Drop
	r.net = net

	r.servers = make([]*server, ns)
	for k := 0; k < ns; k++ {
		sv := &server{r: r, idx: k, ahead: cfg.Offsets.ServerAhead[k], seen: make(map[int]bool)}
		r.servers[k] = sv
		net.Register(r.serverID(k), sv)
	}
	for i, s := range cfg.Assignment {
		r.servers[s].clients = append(r.servers[s].clients, i)
	}
	r.clients = make([]*client, nc)
	for i := 0; i < nc; i++ {
		cl := &client{r: r, idx: i}
		r.clients[i] = cl
		net.Register(r.clientID(i), cl)
	}

	// Inject the workload: client c sends operation o to its assigned
	// server at wall time IssueTime (clients are synchronized, so wall
	// time equals client simulation time).
	for _, op := range cfg.Workload {
		op := op
		err := r.eng.At(op.IssueTime, func() {
			r.res.OpsIssued++
			target := r.serverID(cfg.Assignment[op.Client])
			if err := r.net.Send(r.clientID(op.Client), target, opMsg{op: op, fromClient: true}); err != nil {
				panic(fmt.Sprintf("dia: send: %v", err))
			}
		})
		if err != nil {
			return nil, err
		}
	}

	r.eng.Run()
	r.finalize()
	checkpoints := cfg.Checkpoints
	if checkpoints == nil {
		// Default: one audit after everything has taken effect.
		last := 0.0
		for _, sv := range r.servers {
			for _, rec := range sv.log {
				if rec.execSimTime > last {
					last = rec.execSimTime
				}
			}
		}
		for _, cl := range r.clients {
			for _, rec := range cl.applied {
				if rec.presentationSim > last {
					last = rec.presentationSim
				}
			}
		}
		checkpoints = []float64{last}
	}
	r.auditState(checkpoints)
	return r.res, nil
}

// HandleMessage implements sim.Handler for servers.
func (sv *server) HandleMessage(net *sim.Network, msg sim.Message) {
	m, ok := msg.Payload.(opMsg)
	if !ok {
		panic(fmt.Sprintf("dia: server %d got %T", sv.idx, msg.Payload))
	}
	if sv.seen[m.op.ID] {
		return // duplicate (cannot happen with one forwarder; defensive)
	}
	sv.seen[m.op.ID] = true

	if m.fromClient {
		// First hop: forward to every other server.
		for k := range sv.r.servers {
			if k == sv.idx {
				continue
			}
			if err := net.Send(sv.r.serverID(sv.idx), sv.r.serverID(k), opMsg{op: m.op}); err != nil {
				panic(fmt.Sprintf("dia: forward: %v", err))
			}
		}
	}

	if sv.r.cfg.Repair == RepairTSS {
		sv.executeOptimistic(m.op)
		return
	}

	// Execution deadline: the wall time at which this server's simulation
	// time reaches issue + δ.
	execWall := m.op.IssueTime + sv.r.cfg.Delta - sv.ahead
	now := sv.r.eng.Now()
	if now > execWall+timeEps {
		// Constraint (i) violation: the operation arrived too late to be
		// executed at the required simulation time.
		sv.r.res.ServerLate++
		if late := now - execWall; late > sv.r.res.MaxServerLateness {
			sv.r.res.MaxServerLateness = late
		}
		if sv.r.cfg.Repair == RepairTimewarp {
			sv.timewarp(m.op)
		} else {
			// Execute immediately — the best a real system can do
			// without rollback; replicas permanently diverge.
			sv.execute(m.op)
		}
		return
	}
	op := m.op
	when := execWall
	if when < now {
		when = now // within timeEps of the deadline: execute now
	}
	if err := sv.r.eng.At(when, func() { sv.execute(op) }); err != nil {
		panic(fmt.Sprintf("dia: schedule execution: %v", err))
	}
}

// executeOptimistic is the Trailing State Synchronization path: the
// leading state executes the operation right now (clients get the update
// after pure network latency), while the log records the *authoritative*
// trailing-timeline execution time — issue + δ, or the arrival time when
// even the trailing state missed it. Leading executions that happened out
// of authoritative order are the repairs TSS performs when the trailing
// state catches up; they are counted as rollbacks.
func (sv *server) executeOptimistic(op Operation) {
	res := sv.r.res
	nowSim := sv.r.eng.Now() + sv.ahead
	authoritative := op.IssueTime + sv.r.cfg.Delta
	if nowSim > authoritative+timeEps {
		// Arrived after the trailing deadline: genuine constraint (i)
		// lateness; the trailing state executes it on arrival.
		res.ServerLate++
		if late := nowSim - authoritative; late > res.MaxServerLateness {
			res.MaxServerLateness = late
		}
		authoritative = nowSim
	}
	// Leading-state misorder: every already-executed op that the
	// authoritative order places after this one will be rolled forward.
	mis := 0
	for _, rec := range sv.log {
		if rec.op.IssueTime > op.IssueTime+timeEps {
			mis++
		}
	}
	if mis > 0 {
		res.Rollbacks++
		res.RolledBackOps += mis
	}
	sv.log = append(sv.log, execRecord{op: op, execSimTime: authoritative})
	res.Executions++
	for _, ci := range sv.clients {
		if err := sv.r.net.Send(sv.r.serverID(sv.idx), sv.r.clientID(ci), updateMsg{op: op, execSimTime: authoritative}); err != nil {
			panic(fmt.Sprintf("dia: optimistic update: %v", err))
		}
	}
}

// timewarp retroactively executes a late operation at its correct
// simulation time: the server rolls its state back to just before
// issue + δ, inserts the operation, and replays everything executed
// since. The rollback work is accounted as the repair cost; downstream,
// the server's log carries the *correct* execution time, so consistency
// and fairness are restored — the replicas re-converge.
func (sv *server) timewarp(op Operation) {
	ideal := op.IssueTime + sv.r.cfg.Delta
	res := sv.r.res
	res.Rollbacks++
	// Every already-executed operation with a later execution time has to
	// be undone and re-applied.
	for _, rec := range sv.log {
		if rec.execSimTime > ideal+timeEps {
			res.RolledBackOps++
		}
	}
	nowSim := sv.r.eng.Now() + sv.ahead
	if depth := nowSim - ideal; depth > res.MaxRollbackDepth {
		res.MaxRollbackDepth = depth
	}
	sv.log = append(sv.log, execRecord{op: op, execSimTime: ideal})
	res.Executions++
	for _, ci := range sv.clients {
		if err := sv.r.net.Send(sv.r.serverID(sv.idx), sv.r.clientID(ci), updateMsg{op: op, execSimTime: ideal}); err != nil {
			panic(fmt.Sprintf("dia: repair update: %v", err))
		}
	}
}

// execute applies the operation at the server's current simulation time
// and pushes the state update to its clients.
func (sv *server) execute(op Operation) {
	execSim := sv.r.eng.Now() + sv.ahead
	// On-time executions happen at exactly issue + δ in simulation time;
	// snap to that value so replicas agree bitwise (the wall-time
	// round trip through the per-server offset costs an ulp).
	if ideal := op.IssueTime + sv.r.cfg.Delta; math.Abs(execSim-ideal) <= timeEps {
		execSim = ideal
	}
	sv.log = append(sv.log, execRecord{op: op, execSimTime: execSim})
	sv.r.res.Executions++
	for _, ci := range sv.clients {
		if err := sv.r.net.Send(sv.r.serverID(sv.idx), sv.r.clientID(ci), updateMsg{op: op, execSimTime: execSim}); err != nil {
			panic(fmt.Sprintf("dia: update: %v", err))
		}
	}
}

// HandleMessage implements sim.Handler for clients.
func (cl *client) HandleMessage(_ *sim.Network, msg sim.Message) {
	m, ok := msg.Payload.(updateMsg)
	if !ok {
		panic(fmt.Sprintf("dia: client %d got %T", cl.idx, msg.Payload))
	}
	res := cl.r.res
	res.UpdatesDelivered++
	// The client's simulation time equals wall time. The update should be
	// presented when the client's simulation time reaches issue + δ; it
	// must therefore arrive no later than that.
	now := cl.r.eng.Now()
	deadline := m.op.IssueTime + cl.r.cfg.Delta

	if cl.r.cfg.Repair == RepairTSS {
		// Optimistic display: the effect is visible on arrival, after
		// pure network latency. A lower-issue update arriving after a
		// higher-issue one is a client-visible reordering the trailing
		// state will correct — an artifact.
		if m.op.IssueTime < cl.lastIssue-timeEps {
			res.ClientArtifacts++
		} else if m.op.IssueTime > cl.lastIssue {
			cl.lastIssue = m.op.IssueTime
		}
		if now > deadline+timeEps {
			res.ClientLate++
			if late := now - deadline; late > res.MaxClientLateness {
				res.MaxClientLateness = late
			}
		}
		// State replay uses the authoritative (trailing) time; the
		// perceived interaction time is arrival-based.
		cl.applied = append(cl.applied, appliedRecord{op: m.op, presentationSim: m.execSimTime})
		res.InteractionTimes = append(res.InteractionTimes, now-m.op.IssueTime)
		return
	}

	// presentation is the simulation time at which the update takes
	// effect in the client's state; visible is when the user actually
	// sees it. They differ only for a late update under timewarp, where
	// the state is repaired retroactively (presentation = deadline) but
	// the user perceives the jump at arrival (visible = now).
	presentation, visible := deadline, deadline
	if now > deadline+timeEps {
		res.ClientLate++
		if late := now - deadline; late > res.MaxClientLateness {
			res.MaxClientLateness = late
		}
		visible = now
		if cl.r.cfg.Repair == RepairTimewarp {
			res.ClientArtifacts++ // retroactive jump: on-screen glitch
		} else {
			presentation = now // applied as it arrives; replicas diverge
		}
	}
	cl.applied = append(cl.applied, appliedRecord{op: m.op, presentationSim: presentation})
	res.InteractionTimes = append(res.InteractionTimes, visible-m.op.IssueTime)
}

// finalize runs the post-hoc consistency and fairness audits over the
// server logs and summarizes interaction times.
func (r *runtime) finalize() {
	res := r.res

	// Consistency: every pair of servers must have executed every common
	// operation at the same simulation time. (All servers receive all
	// operations, so the op sets coincide when nothing was dropped.)
	execTimes := make(map[int]map[int]float64, len(r.servers)) // op -> server -> simTime
	for _, sv := range r.servers {
		for _, rec := range sv.log {
			mp := execTimes[rec.op.ID]
			if mp == nil {
				mp = make(map[int]float64, len(r.servers))
				execTimes[rec.op.ID] = mp
			}
			mp[sv.idx] = rec.execSimTime
		}
	}
	for _, mp := range execTimes {
		var times []float64
		for _, t := range mp {
			times = append(times, t)
		}
		sort.Float64s(times)
		for i := 1; i < len(times); i++ {
			if times[i]-times[0] > timeEps {
				res.ConsistencyViolations++
			}
		}
		if len(mp) != len(r.servers) {
			// An operation missed some server entirely (dropped message).
			res.ConsistencyViolations += len(r.servers) - len(mp)
		}
	}

	// Fairness: at each server, the execution timeline (by simulation
	// time — under timewarp the repaired, retroactive times) must follow
	// issuance order, and the lag must be the constant δ.
	for _, sv := range r.servers {
		timeline := append([]execRecord(nil), sv.log...)
		sort.Slice(timeline, func(i, j int) bool {
			if c := cmp.Compare(timeline[i].execSimTime, timeline[j].execSimTime); c != 0 {
				return c < 0
			}
			if c := cmp.Compare(timeline[i].op.IssueTime, timeline[j].op.IssueTime); c != 0 {
				return c < 0
			}
			return timeline[i].op.ID < timeline[j].op.ID
		})
		for i := 1; i < len(timeline); i++ {
			if timeline[i].op.IssueTime < timeline[i-1].op.IssueTime-timeEps {
				res.FairnessViolations++
			}
		}
		for _, rec := range timeline {
			if math.Abs((rec.execSimTime-rec.op.IssueTime)-r.cfg.Delta) > timeEps {
				res.FairnessViolations++
			}
		}
	}

	if len(res.InteractionTimes) > 0 {
		var sum float64
		for _, v := range res.InteractionTimes {
			sum += v
			if v > res.MaxInteraction {
				res.MaxInteraction = v
			}
		}
		res.MeanInteraction = sum / float64(len(res.InteractionTimes))
	}
}

// UniformWorkload issues ops one per interval, cycling through the
// clients round-robin starting at time start.
func UniformWorkload(numClients, numOps int, start, interval float64) []Operation {
	ops := make([]Operation, numOps)
	for i := range ops {
		ops[i] = Operation{ID: i, Client: i % numClients, IssueTime: start + float64(i)*interval}
	}
	return ops
}

// PoissonWorkload issues numOps ops with exponential inter-arrival times
// of the given mean, each from a uniformly random client.
func PoissonWorkload(rng *rand.Rand, numClients, numOps int, meanInterval float64) []Operation {
	ops := make([]Operation, numOps)
	t := 0.0
	for i := range ops {
		t += rng.ExpFloat64() * meanInterval
		ops[i] = Operation{ID: i, Client: rng.Intn(numClients), IssueTime: t}
	}
	return ops
}
