// Package dynamic studies client assignment under churn: clients join and
// leave over time, and the system must keep the maximum interaction-path
// length D low *online*, without re-solving from scratch on every event.
//
// The paper motivates exactly this setting in its related-work discussion:
// "since client assignment deals with only software connections between
// clients and servers, it can be adjusted promptly to adapt to system
// dynamics" — in contrast to server placement, which is planned long-term.
// This package provides a churn workload generator, several online
// strategies built on core.Evaluator's incremental moves and its
// closed-form PeekJoin pricing, and a simulator that scores strategies
// by time-averaged D, worst-case D, and disruption (how many
// already-connected clients get reassigned, since every reassignment
// means a reconnect for a live participant).
package dynamic

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"diacap/internal/assign"
	"diacap/internal/core"
)

const eps = 1e-9

// ErrCapacityExhausted reports that a join (or forced rejoin) could not
// be placed because every server is at capacity. It is the typed
// rejection every online strategy must produce for capacity-infeasible
// churn bursts — a flash crowd larger than the remaining capacity must
// surface as this error, never as a panic or a silently
// capacity-violating assignment.
var ErrCapacityExhausted = errors.New("dynamic: no server has remaining capacity")

// EventKind distinguishes joins from leaves.
type EventKind int

// Event kinds.
const (
	Join EventKind = iota
	Leave
)

func (k EventKind) String() string {
	if k == Join {
		return "join"
	}
	return "leave"
}

// Event is one churn event: client (instance-local index) joins or leaves
// at a simulation time.
type Event struct {
	Time   float64
	Kind   EventKind
	Client int
}

// ChurnConfig parameterizes the churn workload.
type ChurnConfig struct {
	// NumClients is the size of the client pool (instance-local indices).
	NumClients int
	// Horizon is the simulated duration (ms).
	Horizon float64
	// MeanInterarrival is the mean time between joins (ms).
	MeanInterarrival float64
	// MeanSession is the mean session length (ms), exponential.
	MeanSession float64
	// InitialActive clients are joined at time 0.
	InitialActive int
}

// Validate reports whether the configuration is usable.
func (c ChurnConfig) Validate() error {
	switch {
	case c.NumClients <= 0:
		return errors.New("dynamic: NumClients must be positive")
	case c.Horizon <= 0:
		return errors.New("dynamic: Horizon must be positive")
	case c.MeanInterarrival <= 0 || c.MeanSession <= 0:
		return errors.New("dynamic: mean interarrival and session must be positive")
	case c.InitialActive < 0 || c.InitialActive > c.NumClients:
		return fmt.Errorf("dynamic: InitialActive %d outside [0, %d]", c.InitialActive, c.NumClients)
	}
	return nil
}

// GenerateChurn produces a time-sorted event trace: InitialActive joins at
// time 0, then Poisson joins of idle clients with exponential session
// lengths, truncated at the horizon (sessions outlasting the horizon
// simply never leave).
func GenerateChurn(cfg ChurnConfig, seed int64) ([]Event, error) {
	if cfg.NumClients <= 0 {
		return nil, errors.New("dynamic: NumClients must be positive")
	}
	pool := make([]int, cfg.NumClients)
	for i := range pool {
		pool[i] = i
	}
	return GenerateChurnPool(pool, cfg, seed)
}

// GenerateChurnPool is GenerateChurn over an explicit client pool: the
// generated events reference the given instance-local client indices
// instead of [0, NumClients). Scenario drivers use it to run background
// churn on one subset of the population while reserving another (e.g.
// the clients nearest a flash-crowd epicenter) for scripted bursts.
// cfg.NumClients must match len(pool).
func GenerateChurnPool(pool []int, cfg ChurnConfig, seed int64) ([]Event, error) {
	if cfg.NumClients != len(pool) {
		return nil, fmt.Errorf("dynamic: NumClients %d != pool size %d", cfg.NumClients, len(pool))
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var events []Event
	idle := append([]int(nil), pool...)
	// pickIdle removes and returns a random idle client (-1 when none).
	pickIdle := func() int {
		if len(idle) == 0 {
			return -1
		}
		i := rng.Intn(len(idle))
		c := idle[i]
		idle[i] = idle[len(idle)-1]
		idle = idle[:len(idle)-1]
		return c
	}

	var departures []Event
	join := func(c int, at float64) {
		events = append(events, Event{Time: at, Kind: Join, Client: c})
		end := at + rng.ExpFloat64()*cfg.MeanSession
		if end < cfg.Horizon {
			departures = append(departures, Event{Time: end, Kind: Leave, Client: c})
		}
	}
	for i := 0; i < cfg.InitialActive; i++ {
		if c := pickIdle(); c >= 0 {
			join(c, 0)
		}
	}
	for t := rng.ExpFloat64() * cfg.MeanInterarrival; t < cfg.Horizon; t += rng.ExpFloat64() * cfg.MeanInterarrival {
		// A client can rejoin only after leaving; move departures ≤ t
		// into the event trace and back into the idle pool first.
		sort.Slice(departures, func(i, j int) bool { return departures[i].Time < departures[j].Time })
		for len(departures) > 0 && departures[0].Time <= t {
			events = append(events, departures[0])
			idle = append(idle, departures[0].Client)
			departures = departures[1:]
		}
		if c := pickIdle(); c >= 0 {
			join(c, t)
		}
	}
	events = append(events, departures...)
	sortEvents(events)
	return events, nil
}

// Strategy is an online assignment policy.
type Strategy interface {
	// Name identifies the strategy in results.
	Name() string
	// PlaceJoin picks the server for a joining client, given the live
	// evaluator state (read-only use). Returning a saturated server or
	// -1 is an error.
	PlaceJoin(ev *core.Evaluator, caps core.Capacities, client int) int
	// Repair may reassign already-active clients after an event; it
	// returns the client moves it performed (for disruption accounting).
	// It is called after every event with the live evaluator and the
	// event's simulation time.
	Repair(ev *core.Evaluator, caps core.Capacities, now float64) int
}

// NearestJoin joins each client to its nearest unsaturated server and
// never reassigns anyone — the zero-disruption baseline.
//
// Strategies read all geometry from the evaluator they are handed (not
// from a cached instance pointer), so the same strategy value keeps
// working when the simulator re-materializes the instance under
// coordinate drift and hands it a fresh evaluator.
type NearestJoin struct{}

// NewNearestJoin builds the baseline. The instance argument is accepted
// for compatibility and no longer retained.
func NewNearestJoin(*core.Instance) *NearestJoin { return &NearestJoin{} }

// Name implements Strategy.
func (*NearestJoin) Name() string { return "Nearest-Join" }

// PlaceJoin implements Strategy.
func (s *NearestJoin) PlaceJoin(ev *core.Evaluator, caps core.Capacities, client int) int {
	row := ev.Instance().ClientServerRow(client)
	best := -1
	for k := range row {
		if caps != nil && ev.Load(k) >= caps[k] {
			continue
		}
		if best == -1 || row[k] < row[best] {
			best = k
		}
	}
	return best
}

// Repair implements Strategy.
func (*NearestJoin) Repair(*core.Evaluator, core.Capacities, float64) int { return 0 }

// GreedyJoin places each joining client on the unsaturated server that
// minimizes the resulting D (one closed-form PeekJoin per server); no
// reassignments.
type GreedyJoin struct{}

// NewGreedyJoin builds the strategy. The instance argument is accepted
// for compatibility and no longer retained.
func NewGreedyJoin(*core.Instance) *GreedyJoin { return &GreedyJoin{} }

// Name implements Strategy.
func (*GreedyJoin) Name() string { return "Greedy-Join" }

// PlaceJoin implements Strategy.
func (s *GreedyJoin) PlaceJoin(ev *core.Evaluator, caps core.Capacities, client int) int {
	best, bestD := -1, math.Inf(1)
	for k := 0; k < ev.Instance().NumServers(); k++ {
		if caps != nil && ev.Load(k) >= caps[k] {
			continue
		}
		if d := ev.PeekJoin(client, k); d < bestD-eps {
			best, bestD = k, d
		}
	}
	return best
}

// Repair implements Strategy.
func (*GreedyJoin) Repair(*core.Evaluator, core.Capacities, float64) int { return 0 }

// GreedyJoinRepair is GreedyJoin plus bounded Distributed-Greedy-style
// repair: after each event it applies assign.BestMove — the best move
// of a client on a longest path — up to MovesPerEvent times, while that
// strictly reduces D.
type GreedyJoinRepair struct {
	join *GreedyJoin
	// MovesPerEvent bounds repair reassignments per event (default 2).
	MovesPerEvent int
}

// NewGreedyJoinRepair builds the strategy. The instance argument is
// accepted for compatibility and no longer retained.
func NewGreedyJoinRepair(in *core.Instance, movesPerEvent int) *GreedyJoinRepair {
	if movesPerEvent <= 0 {
		movesPerEvent = 2
	}
	return &GreedyJoinRepair{join: NewGreedyJoin(in), MovesPerEvent: movesPerEvent}
}

// Name implements Strategy.
func (s *GreedyJoinRepair) Name() string {
	return fmt.Sprintf("Greedy-Join+Repair(%d)", s.MovesPerEvent)
}

// PlaceJoin implements Strategy.
func (s *GreedyJoinRepair) PlaceJoin(ev *core.Evaluator, caps core.Capacities, client int) int {
	return s.join.PlaceJoin(ev, caps, client)
}

// Repair implements Strategy.
func (s *GreedyJoinRepair) Repair(ev *core.Evaluator, caps core.Capacities, _ float64) int {
	moves := 0
	for moves < s.MovesPerEvent {
		c, k, _ := assign.BestMove(ev, caps)
		if c == -1 {
			break
		}
		ev.Move(c, k)
		moves++
	}
	return moves
}

// PeriodicReoptimize is the heavyweight end of the online spectrum: joins
// are placed greedily, and every Period milliseconds the entire active
// population is re-assigned from scratch with the configured algorithm
// (default Greedy). Every client whose server changes in a re-optimization
// counts as disruption — the cost that the incremental strategies avoid.
type PeriodicReoptimize struct {
	join *GreedyJoin
	// Period between full re-optimizations (virtual ms).
	Period float64
	// Algorithm used for the periodic solve (nil = Greedy).
	Algorithm assign.Algorithm
	lastRun   float64
}

// NewPeriodicReoptimize builds the strategy. Its clock is the event
// time every tape target passes to Repair (see RunTape). The instance
// argument is accepted for compatibility and no longer retained.
func NewPeriodicReoptimize(in *core.Instance, period float64) *PeriodicReoptimize {
	if period <= 0 {
		period = 500
	}
	return &PeriodicReoptimize{join: NewGreedyJoin(in), Period: period}
}

// Name implements Strategy.
func (s *PeriodicReoptimize) Name() string {
	return fmt.Sprintf("Periodic-Reoptimize(%.0fms)", s.Period)
}

// PlaceJoin implements Strategy.
func (s *PeriodicReoptimize) PlaceJoin(ev *core.Evaluator, caps core.Capacities, client int) int {
	return s.join.PlaceJoin(ev, caps, client)
}

// Repair implements Strategy: when a period has elapsed, re-solve the
// active sub-instance from scratch and apply the new assignment.
func (s *PeriodicReoptimize) Repair(ev *core.Evaluator, caps core.Capacities, now float64) int {
	if now-s.lastRun < s.Period {
		return 0
	}
	s.lastRun = now
	in := ev.Instance()

	// Build the active sub-instance: active clients only, in instance
	// order, mapped back after solving.
	var active []int
	for c := 0; c < in.NumClients(); c++ {
		if ev.ServerOf(c) != core.Unassigned {
			active = append(active, c)
		}
	}
	if len(active) == 0 {
		return 0
	}
	activeNodes := make([]int, len(active))
	for i, c := range active {
		activeNodes[i] = in.ClientNode(c)
	}
	serverNodes := make([]int, in.NumServers())
	for k := range serverNodes {
		serverNodes[k] = in.ServerNode(k)
	}
	sub, err := core.NewInstanceTrusted(in.Matrix(), serverNodes, activeNodes)
	if err != nil {
		return 0 // keep the current assignment on any internal error
	}
	alg := s.Algorithm
	if alg == nil {
		alg = assign.Greedy{}
	}
	fresh, err := alg.Assign(sub, caps)
	if err != nil {
		return 0
	}
	moves := 0
	for i, c := range active {
		if ev.ServerOf(c) != fresh[i] {
			ev.Move(c, fresh[i])
			moves++
		}
	}
	return moves
}

// Result scores one strategy over one churn trace.
type Result struct {
	Strategy string
	// TimeAvgD is D integrated over time divided by the horizon,
	// counting only periods with at least two active clients.
	TimeAvgD float64
	// MaxD is the largest D observed at any instant.
	MaxD float64
	// FinalD is D at the horizon.
	FinalD float64
	// Joins and Leaves are the processed event counts.
	Joins, Leaves int
	// RepairMoves counts reassignments of already-active clients — the
	// disruption cost of the strategy.
	RepairMoves int
	// Timeline holds (event time, D after the event) pairs.
	Timeline []TimelinePoint
}

// TimelinePoint is one sample of the D trajectory.
type TimelinePoint struct {
	Time float64
	D    float64
}

// anyCapacityLeft reports whether at least one server still has room
// under caps (always true with nil caps: capacity is unlimited).
func anyCapacityLeft(ev *core.Evaluator, caps core.Capacities) bool {
	if caps == nil {
		return true
	}
	for k := range caps {
		if ev.Load(k) < caps[k] {
			return true
		}
	}
	return false
}

// Simulate replays a churn trace against a strategy. The instance's
// client set is the churn pool; capacities are optional. The trace runs
// through RunTape in input order, so it must already be time-sorted.
func Simulate(in *core.Instance, caps core.Capacities, events []Event, horizon float64, strat Strategy) (*Result, error) {
	if in == nil || strat == nil {
		return nil, errors.New("dynamic: nil instance or strategy")
	}
	if horizon <= 0 {
		return nil, errors.New("dynamic: horizon must be positive")
	}
	if caps != nil && len(caps) != in.NumServers() {
		return nil, fmt.Errorf("dynamic: %d capacities for %d servers", len(caps), in.NumServers())
	}
	tape := make([]TapeEvent, 0, len(events))
	for i, e := range events {
		if i > 0 && e.Time < events[i-1].Time {
			return nil, fmt.Errorf("dynamic: events not sorted at index %d", i)
		}
		if e.Time > horizon {
			break
		}
		if e.Kind != Join && e.Kind != Leave {
			return nil, fmt.Errorf("dynamic: unknown event kind %d", e.Kind)
		}
		tape = append(tape, churnTape(e))
	}
	ev, err := in.NewEvaluator(core.NewAssignment(in.NumClients()))
	if err != nil {
		return nil, err
	}
	res, err := RunTape(context.TODO(), tape, horizon, newEvalTarget(ev, caps, strat, nil))
	if err != nil {
		return nil, err
	}
	res.Strategy = strat.Name()
	return &res.Result, nil
}
