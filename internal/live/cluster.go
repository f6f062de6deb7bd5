package live

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"diacap/internal/core"
	"diacap/internal/dia"
	"diacap/internal/obs"
)

// ClusterConfig configures a full localhost deployment of the paper's
// architecture: one TCP server per instance server, one client per
// instance client (or a subset), per-pair latency injection from the
// instance's matrix, and the Section II-C simulation-time offsets.
type ClusterConfig struct {
	Instance   *core.Instance
	Assignment core.Assignment
	// Delta is the execution lag δ (virtual ms); Offsets the server
	// offsets (nil computes them from the assignment).
	Delta   float64
	Offsets *core.Offsets
	// Clients optionally restricts which instance clients to launch
	// (nil = all). Launching hundreds of TCP clients is fine but slows
	// tests; experiments usually sample.
	Clients []int
	// Scale is the wall duration of one virtual millisecond. The default
	// is 1 ms (real time): latencies then dwarf scheduler and codec
	// noise even on a single-core machine. Faster scales work on
	// multi-core hosts at the cost of a larger LatenessTolerance.
	Scale time.Duration
	// LatenessTolerance absorbs scheduling noise (virtual ms, default 15).
	LatenessTolerance float64
	// Faults optionally injects message-level faults on every link and
	// enables chaos testing (see FaultPlan).
	Faults *FaultPlan
	// ReconnectAttempts / ReconnectBackoff / ReconnectJitterSeed tune the
	// clients' reconnection path (see ClientConfig; zero values take the
	// defaults). The seed is mixed with each client's ID, so one cluster
	// seed yields per-client jitter schedules that diverge yet replay.
	ReconnectAttempts   int
	ReconnectBackoff    time.Duration
	ReconnectJitterSeed int64
	// Metrics, if non-nil, receives live-cluster telemetry: per-server
	// execution counts, per-delivery lag spread, reconnect attempts,
	// failover durations, fault-injection totals (see obs.go).
	Metrics *obs.Registry
	// Flight, if non-nil, gives every server a flight-recorder journal
	// of traced op executions (see Client.IssueTraced).
	Flight *obs.Recorder
}

// Cluster is a running live deployment.
type Cluster struct {
	cfg     ClusterConfig
	clock   Clock
	servers []*Server
	clients map[int]*Client
	inj     *Injectors
	metrics *clusterMetrics
	health  *healthCounters

	mu         sync.Mutex
	assignment core.Assignment // current assignment; changes on failover
	offsets    *core.Offsets   // offsets in force; change on failover
	dead       map[int]bool
	failovers  []FailoverReport
}

// FailoverReport describes one completed failover.
type FailoverReport struct {
	// Dead are the servers that were down when the failover ran.
	Dead []int
	// Orphans are the launched clients that were reassigned and
	// reconnected.
	Orphans []int
	// PreD is the minimum feasible lag of the assignment in force before
	// the failure; PostD the degraded minimum for the surviving set
	// (core.Offsets.D of the recomputed survivor assignment). The
	// cluster keeps running at its configured δ either way: if
	// PostD > δ the consistency guarantee is degraded and late
	// executions are expected.
	PreD, PostD float64
	// Assignment is the post-failover assignment; Offsets the recomputed
	// Section II-C offsets over the surviving servers.
	Assignment core.Assignment
	Offsets    *core.Offsets
	// WallDuration is how long the failover took; VirtualStart and
	// VirtualEnd bracket it in virtual time.
	WallDuration time.Duration
	VirtualStart float64
	VirtualEnd   float64
}

// ClusterResult aggregates a finished run.
type ClusterResult struct {
	// OpsIssued counts operations sent by clients.
	OpsIssued int
	// Executions counts (op, server) executions across all servers,
	// including partial logs of servers that died mid-run.
	Executions int
	// ServerLate / ClientLate count deadline misses beyond tolerance.
	ServerLate int
	ClientLate int
	// UpdatesDelivered counts (op, client) deliveries.
	UpdatesDelivered int
	// MeanInteraction / MaxInteraction summarize client-observed
	// interaction times (virtual ms).
	MeanInteraction float64
	MaxInteraction  float64
	// ExecSpread is the largest cross-server difference in execution
	// simulation time for the same operation, over servers alive at the
	// end of the run — the direct consistency measure (0 when every
	// surviving replica executed at the same sim time).
	ExecSpread float64
	// OrderInversions counts per-server executions out of issuance order
	// (on the simulation-time execution timeline) over surviving
	// servers — the fairness measure.
	OrderInversions int

	// Degradation metrics (all zero on a fault-free run).

	// OpsLost counts issued operations that no surviving server executed.
	OpsLost int
	// DuplicatesSuppressed counts duplicate op arrivals absorbed by the
	// servers' idempotent execution.
	DuplicatesSuppressed int
	// Faults reports what the fault plan's injectors did.
	Faults FaultStats
	// Failovers lists every failover performed during the run.
	Failovers []FailoverReport
	// PostFailoverExecSpread / PostFailoverOrderInversions restrict the
	// consistency and fairness measures to operations issued after the
	// last failover completed — they show whether the δ-guarantee was
	// re-established on the surviving set.
	PostFailoverExecSpread      float64
	PostFailoverOrderInversions int
}

// StartCluster boots servers, interconnects them, and dials clients.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	in := cfg.Instance
	if in == nil {
		return nil, errors.New("live: nil instance")
	}
	if err := in.Validate(cfg.Assignment); err != nil {
		return nil, err
	}
	if cfg.Offsets == nil {
		off, err := in.ComputeOffsets(cfg.Assignment)
		if err != nil {
			return nil, err
		}
		cfg.Offsets = off
	}
	if cfg.Delta <= 0 {
		return nil, errors.New("live: delta must be positive")
	}
	if cfg.Scale <= 0 {
		cfg.Scale = time.Millisecond
	}
	if cfg.LatenessTolerance <= 0 {
		cfg.LatenessTolerance = 15
	}
	clientIDs := cfg.Clients
	if clientIDs == nil {
		clientIDs = make([]int, in.NumClients())
		for i := range clientIDs {
			clientIDs[i] = i
		}
	}
	for _, c := range clientIDs {
		if c < 0 || c >= in.NumClients() {
			return nil, fmt.Errorf("live: client %d out of range", c)
		}
	}

	// The epoch sits slightly in the future so that startup (listen,
	// dial, handshake) happens "before time zero".
	clock := Clock{Epoch: time.Now().Add(50 * time.Millisecond), Scale: cfg.Scale}
	cl := &Cluster{
		cfg:        cfg,
		clock:      clock,
		clients:    make(map[int]*Client, len(clientIDs)),
		inj:        NewInjectors(cfg.Faults, clock),
		assignment: cfg.Assignment.Clone(),
		offsets:    cfg.Offsets,
		dead:       make(map[int]bool),
		health:     &healthCounters{},
	}

	// Servers.
	for k := 0; k < in.NumServers(); k++ {
		k := k
		srv, err := StartServer(ServerConfig{
			ID:    k,
			Clock: clock,
			Delta: cfg.Delta,
			Ahead: cfg.Offsets.ServerAhead[k],
			PeerDelay: func(peer int) float64 {
				return in.ServerServerDist(k, peer)
			},
			ClientDelay: func(client int) float64 {
				return in.ClientServerDist(client, k)
			},
			LatenessTolerance: cfg.LatenessTolerance,
			Faults:            cl.inj,
			Flight:            cfg.Flight,
		}, "127.0.0.1:0")
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.servers = append(cl.servers, srv)
	}
	// Full mesh.
	for i, s := range cl.servers {
		for j, t := range cl.servers {
			if i == j {
				continue
			}
			if err := s.ConnectPeer(j, t.Addr()); err != nil {
				cl.Close()
				return nil, err
			}
		}
	}
	cl.metrics = newClusterMetrics(cfg.Metrics, cl, len(clientIDs))
	// Clients.
	for _, ci := range clientIDs {
		target := cfg.Assignment[ci]
		c, err := Dial(ClientConfig{
			ID:                  ci,
			Clock:               clock,
			Delta:               cfg.Delta,
			UplinkDelay:         in.ClientServerDist(ci, target),
			LatenessTolerance:   cfg.LatenessTolerance,
			ReconnectAttempts:   cfg.ReconnectAttempts,
			ReconnectBackoff:    cfg.ReconnectBackoff,
			ReconnectJitterSeed: cfg.ReconnectJitterSeed,
			Faults:              cl.inj,
			OnDelivery:          cl.deliveryObserver(),
			OnReconnectAttempt:  cl.reconnectObserver(),
		}, cl.servers[target].Addr())
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.clients[ci] = c
	}
	return cl, nil
}

// Clock returns the shared cluster clock.
func (cl *Cluster) Clock() Clock { return cl.clock }

// NumServers returns the configured server count (dead or alive). With
// DeadServers and HealthSnapshot it satisfies the service package's
// LiveStatus view.
func (cl *Cluster) NumServers() int { return len(cl.servers) }

// Client returns a launched client by instance index (nil if absent).
func (cl *Cluster) Client(id int) *Client { return cl.clients[id] }

// Assignment returns a copy of the assignment currently in force.
func (cl *Cluster) Assignment() core.Assignment {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.assignment.Clone()
}

// DeadServers returns the servers killed so far, ascending.
func (cl *Cluster) DeadServers() []int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make([]int, 0, len(cl.dead))
	for k := range cl.dead {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Kill abruptly terminates a server: its listener and every connection
// drop, pending executions are cancelled, and in-flight messages to and
// from it are lost. Clients assigned to it stay orphaned until Failover
// runs. Killing the last live server is rejected.
func (cl *Cluster) Kill(serverID int) error {
	if serverID < 0 || serverID >= len(cl.servers) {
		return fmt.Errorf("live: kill: server %d out of range [0,%d)", serverID, len(cl.servers))
	}
	cl.mu.Lock()
	if cl.dead[serverID] {
		cl.mu.Unlock()
		return fmt.Errorf("live: server %d already dead", serverID)
	}
	if len(cl.dead) >= len(cl.servers)-1 {
		cl.mu.Unlock()
		return errors.New("live: refusing to kill the last live server")
	}
	cl.dead[serverID] = true
	cl.mu.Unlock()
	return cl.servers[serverID].Close()
}

// Failover enacts a decision made elsewhere (a plane's KillServer, or
// dynamic.Evacuate): a, copied, is the complete assignment the
// survivors run; it must move every client of a dead server to a live
// one and no other client. The Section II-C offsets are recomputed for
// the survivors, who adopt them, and the orphans reconnect with bounded
// retry and exponential backoff. The cluster keeps its configured δ;
// the report's PostD is the degraded minimum feasible lag of a.
func (cl *Cluster) Failover(a core.Assignment) (*FailoverReport, error) {
	start := time.Now()
	virtualStart := cl.clock.NowVirtual()
	in := cl.cfg.Instance

	cl.mu.Lock()
	if len(cl.dead) == 0 {
		cl.mu.Unlock()
		return nil, errors.New("live: failover: no dead servers")
	}
	dead := make([]int, 0, len(cl.dead))
	for k := range cl.dead {
		dead = append(dead, k)
	}
	sort.Ints(dead)
	preD := cl.offsets.D
	cur := cl.assignment
	cl.mu.Unlock()

	if len(a) != len(cur) {
		return nil, fmt.Errorf("live: failover: assignment covers %d clients, cluster has %d", len(a), len(cur))
	}
	newA := a.Clone()
	var orphanAll []int
	for ci, s := range cur {
		switch {
		case containsInt(dead, s):
			orphanAll = append(orphanAll, ci)
		case newA[ci] != s:
			return nil, fmt.Errorf("live: failover: client %d moved off live server %d", ci, s)
		}
	}
	survivors := make([]int, 0, in.NumServers()-len(dead))
	for k := 0; k < in.NumServers(); k++ {
		if !containsInt(dead, k) {
			survivors = append(survivors, k)
		}
	}
	off, err := in.ComputeOffsetsForServers(newA, survivors)
	if err != nil {
		return nil, fmt.Errorf("live: failover: recomputing offsets: %w", err)
	}
	for _, k := range survivors {
		cl.servers[k].SetAhead(off.ServerAhead[k])
	}

	// Reconnect the launched orphans concurrently; each Reconnect
	// retries with exponential backoff on its own.
	var orphans []int
	for _, ci := range orphanAll {
		if _, ok := cl.clients[ci]; ok {
			orphans = append(orphans, ci)
		}
	}
	errCh := make(chan error, len(orphans))
	var wg sync.WaitGroup
	for _, ci := range orphans {
		ci := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			target := newA[ci]
			err := cl.clients[ci].Reconnect(cl.servers[target].Addr(), in.ClientServerDist(ci, target))
			if err != nil {
				errCh <- err
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, fmt.Errorf("live: failover: %w", err)
	default:
	}

	rep := FailoverReport{
		Dead:         dead,
		Orphans:      orphans,
		PreD:         preD,
		PostD:        off.D,
		Assignment:   newA.Clone(),
		Offsets:      off,
		WallDuration: time.Since(start),
		VirtualStart: virtualStart,
		VirtualEnd:   cl.clock.NowVirtual(),
	}
	cl.mu.Lock()
	cl.assignment = newA
	cl.offsets = off
	cl.failovers = append(cl.failovers, rep)
	cl.mu.Unlock()
	cl.metrics.observeFailover(rep.WallDuration)
	cl.health.observeFailover(rep.WallDuration)
	return &rep, nil
}

// RunWorkload issues the operations (their Client field must refer to
// launched clients), waits for the pipeline to drain, and gathers the
// result. Ops must be sorted by IssueTime. Kill and Failover may run
// concurrently from another goroutine to drive a chaos scenario.
func (cl *Cluster) RunWorkload(ops []dia.Operation) (*ClusterResult, error) {
	var wg sync.WaitGroup
	for _, op := range ops {
		c, ok := cl.clients[op.Client]
		if !ok {
			return nil, fmt.Errorf("live: operation %d from unlaunched client %d", op.ID, op.Client)
		}
		wg.Add(1)
		go func(c *Client, id int, at float64) {
			defer wg.Done()
			c.IssueAt(id, at)
		}(c, op.ID, op.IssueTime)
	}
	wg.Wait()

	// Drain: the last effect lands no later than max issue + δ + the
	// worst client downlink + tolerance; wait that out plus slack.
	lastIssue := 0.0
	for _, op := range ops {
		if op.IssueTime > lastIssue {
			lastIssue = op.IssueTime
		}
	}
	in := cl.cfg.Instance
	assignment := cl.Assignment()
	maxDown := 0.0
	for ci := range cl.clients {
		if d := in.ClientServerDist(ci, assignment[ci]); d > maxDown {
			maxDown = d
		}
	}
	drainUntil := lastIssue + cl.cfg.Delta + maxDown + 4*cl.cfg.LatenessTolerance + 50
	cl.clock.SleepUntilVirtual(drainUntil)

	cl.mu.Lock()
	deadSet := make(map[int]bool, len(cl.dead))
	for k := range cl.dead {
		deadSet[k] = true
	}
	failovers := append([]FailoverReport(nil), cl.failovers...)
	cl.mu.Unlock()

	res := &ClusterResult{OpsIssued: len(ops), Failovers: failovers, Faults: cl.inj.Stats()}
	// postFailoverFrom is the issuance horizon after which the recomputed
	// offsets govern every execution.
	postFailoverFrom := -1.0
	if n := len(failovers); n > 0 {
		postFailoverFrom = failovers[n-1].VirtualEnd
	}

	// Server-side statistics and consistency/fairness audit. Raw counts
	// cover every server; the consistency and fairness measures cover
	// the servers alive at the end of the run.
	tol := cl.cfg.LatenessTolerance
	executedAlive := make(map[int]bool)
	var aliveLogs, postLogs [][]ExecRecord
	for k, s := range cl.servers {
		execs, late, _ := s.Stats()
		res.Executions += execs
		res.ServerLate += late
		res.DuplicatesSuppressed += s.Duplicates()
		if deadSet[k] {
			continue
		}
		slog := s.Log()
		aliveLogs = append(aliveLogs, slog)
		for _, rec := range slog {
			executedAlive[rec.Op.OpID] = true
		}
		if postFailoverFrom >= 0 {
			var post []ExecRecord
			for _, rec := range slog {
				if rec.Op.IssueSim >= postFailoverFrom {
					post = append(post, rec)
				}
			}
			postLogs = append(postLogs, post)
		}
	}
	res.ExecSpread, res.OrderInversions = auditLogs(aliveLogs, tol)
	if postFailoverFrom >= 0 {
		res.PostFailoverExecSpread, res.PostFailoverOrderInversions = auditLogs(postLogs, tol)
	}
	for _, op := range ops {
		if !executedAlive[op.ID] {
			res.OpsLost++
		}
	}

	// Client-side statistics.
	var sum float64
	for _, c := range cl.clients {
		for _, d := range c.Deliveries() {
			res.UpdatesDelivered++
			if d.Late {
				res.ClientLate++
			}
			sum += d.InteractionTime
			if d.InteractionTime > res.MaxInteraction {
				res.MaxInteraction = d.InteractionTime
			}
		}
	}
	if res.UpdatesDelivered > 0 {
		res.MeanInteraction = sum / float64(res.UpdatesDelivered)
	}
	return res, nil
}

// auditLogs computes the consistency (largest cross-server execution
// spread per op) and fairness (per-server issuance-order inversions)
// measures over a set of per-server execution logs.
func auditLogs(logs [][]ExecRecord, tol float64) (spread float64, inversions int) {
	execTimes := make(map[int][]float64)
	for _, slog := range logs {
		for _, rec := range slog {
			execTimes[rec.Op.OpID] = append(execTimes[rec.Op.OpID], rec.ExecSim)
		}
		// Fairness: sort the log by execution sim time and look for
		// issuance-order inversions.
		ordered := append([]ExecRecord(nil), slog...)
		sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].ExecSim < ordered[j].ExecSim })
		for i := 1; i < len(ordered); i++ {
			// Executions within the tolerance of each other are
			// effectively simultaneous — ordering between them is
			// scheduler noise, not unfairness.
			if ordered[i].ExecSim-ordered[i-1].ExecSim <= tol {
				continue
			}
			if ordered[i].Op.IssueSim < ordered[i-1].Op.IssueSim-tol {
				inversions++
			}
		}
	}
	for _, times := range execTimes {
		min, max := times[0], times[0]
		for _, t := range times {
			if t < min {
				min = t
			}
			if t > max {
				max = t
			}
		}
		if s := max - min; s > spread {
			spread = s
		}
	}
	return spread, inversions
}

// Close tears the whole cluster down.
func (cl *Cluster) Close() {
	for _, c := range cl.clients {
		_ = c.Close()
	}
	for _, s := range cl.servers {
		_ = s.Close()
	}
}
