// Package shard is the assignment control plane: one incremental
// evaluator over the whole client universe and one online strategy
// decide every join, leave, migration, server kill and restart, and
// coordinate drift, and the world state is published as immutable
// snapshots behind a monotone epoch counter swapped through an atomic
// pointer — reads on the serving path never take a lock.
//
// The plane has no shards. The objective D is a maximum over every
// pair of clients, so no subset of the clients can decide alone: one
// world decides every write, as dynamic.SimulateScenario does, bit for
// bit. The package keeps its name, which the /v1/shard/* routes and
// the diacap_shard_* metrics share.
//
// The published D is exact, so it is its own certificate: CertifiedD
// is D.
//
// A mutation costs O(incremental repair), not O(world): the evaluator
// runs the incremental D engine of internal/core.
package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"diacap/internal/core"
	"diacap/internal/dynamic"
	"diacap/internal/latency"
	"diacap/internal/obs"
)

// Typed control-plane errors.
var (
	// ErrUnknownClient reports a client id outside the plane's universe.
	ErrUnknownClient = errors.New("shard: unknown client")
	// ErrNoCapacity reports a join, migration or evacuation that no
	// live server has room left for in the world's capacity pool.
	ErrNoCapacity = errors.New("shard: no capacity")
	// ErrServerDown reports an operation targeting a killed server.
	ErrServerDown = errors.New("shard: server is down")
	// ErrUnknownServer reports a server id outside the plane's servers.
	ErrUnknownServer = errors.New("shard: unknown server")
)

// EvacuationError reports a kill that committed with clients it had no
// room for: Detached holds their ids, ascending, and each is inactive.
// It wraps ErrNoCapacity and dynamic.ErrCapacityExhausted.
type EvacuationError struct {
	Server   int
	Detached []int
}

func (e *EvacuationError) Error() string {
	return fmt.Sprintf("%v: the evacuation of server %d detached clients %v: %v",
		ErrNoCapacity, e.Server, e.Detached, dynamic.ErrCapacityExhausted)
}

func (e *EvacuationError) Unwrap() []error {
	return []error{ErrNoCapacity, dynamic.ErrCapacityExhausted}
}

// Options configures New.
type Options struct {
	// Shards is ignored: a plane has no shards. The field stays only so
	// that callers that still set it keep building.
	//
	// Deprecated: leave it unset; a plane ignores it.
	Shards int
	// Servers are the server coordinates (required).
	Servers []latency.Coord
	// Clients is the client universe (required); client id i is
	// Clients[i]. Clients start inactive and enter through Join.
	Clients []latency.Coord
	// Capacities are per-server capacities (nil = uncapacitated).
	Capacities core.Capacities
	// Strategy places every join, strategy migration and evacuation and
	// runs every repair (default GreedyJoin: minimize D on every
	// placement, no repair). The plane owns it: stateful strategies
	// (hysteresis budgets, periodic clocks) must not be shared between
	// planes.
	Strategy dynamic.Strategy
	// Metrics, if non-nil, receives control-plane metrics.
	Metrics *obs.Registry
	// Tracer, if non-nil, enables evaluator-level span events on plane
	// mutations and lets Replay start per-event root spans. Request-level
	// child spans (plane.join etc.) ride the request context and work
	// without it, but attributing incremental-evaluator work to those
	// spans requires the tracer here too — pass the service tracer.
	Tracer *obs.Tracer
	// Flight, if non-nil, receives failover, epoch-bump, and
	// hysteresis-suppression events in the flight recorder.
	Flight *obs.Recorder
}

func (o *Options) fill() {
	if o.Strategy == nil {
		o.Strategy = &dynamic.GreedyJoin{}
	}
}

// Plane is the assignment control plane. Mutations are serialized by an
// internal mutex; snapshot reads are lock-free (Current / At).
//
// Every write is all-or-nothing: it publishes exactly one epoch, or it
// publishes none and changes nothing (the same snapshot; the
// evaluator's assignment, loads, eccentricities and D). A refused
// write, a kill of a dead server and a repair that moves nobody
// publish none; a restart of a live server and a no-op migrate publish
// one. A kill of a live server is never refused: it publishes one
// epoch, and its *EvacuationError names the clients it detached. Every
// published epoch has no client on a dead server and no load above its
// capacity.
type Plane struct {
	opts Options

	// ev is the world: one evaluator over every server and client,
	// indexed by server and client id. strat decides against eff, the
	// capacities under the current liveness (dynamic.EffectiveCaps, as
	// the simulator's).
	ev    *core.Evaluator
	strat dynamic.Strategy
	eff   core.Capacities
	alive []bool
	dead  int
	// dAttr is the epoch journal's rendered "d" for the D whose bits are
	// dAttrBits.
	dAttr     obs.Attr
	dAttrBits uint64

	// serverNodes/clientNodes map server and client ids to node ids of
	// the plane's node space, numNodes coordinates long: [servers ∥
	// clients] for New, the population's own node order for
	// NewFromPopulation. The instance is built, and rebuilt on drift,
	// from coordinates indexed by these ids.
	serverNodes []int
	clientNodes []int
	numNodes    int
	// lastRepair is the wall time of the last Repair in Unix
	// nanoseconds (0 until the first). It is atomic so that a health
	// probe reads it without the writer lock.
	lastRepair atomic.Int64

	mu    sync.Mutex
	epoch uint64
	snap  atomic.Pointer[Snapshot]

	met    *planeMetrics
	tracer *obs.Tracer
	flight *obs.Recorder
	// Flight journals, resolved once at construction (nil-safe when the
	// plane runs without a recorder).
	jFailover   *obs.Journal
	jEpoch      *obs.Journal
	jSuppressed *obs.Journal
	// curSpan is the span of the mutation currently holding p.mu; the
	// evaluator delta hook and the hysteresis suppression hook attach
	// their events to it. Guarded by p.mu.
	curSpan *obs.Span
}

// New builds a plane over the client universe: build the instance over
// every server and client, and publish the empty epoch-1 snapshot. All
// clients start inactive. The plane's node space is [servers ∥
// clients]: server k is node k and client i is node len(Servers)+i.
func New(opts Options) (*Plane, error) {
	ns := len(opts.Servers)
	cs := append(append([]latency.Coord(nil), opts.Servers...), opts.Clients...)
	serverNodes := make([]int, ns)
	clientNodes := make([]int, len(opts.Clients))
	for k := range serverNodes {
		serverNodes[k] = k
	}
	for i := range clientNodes {
		clientNodes[i] = ns + i
	}
	return newPlane(opts, cs, serverNodes, clientNodes)
}

// newPlane is New over node-indexed coordinates cs: server k is node
// serverNodes[k] and client i is node clientNodes[i], and
// opts.Servers/opts.Clients hold the same coordinates by id.
func newPlane(opts Options, cs []latency.Coord, serverNodes, clientNodes []int) (*Plane, error) {
	opts.fill()
	if len(opts.Servers) == 0 {
		return nil, errors.New("shard: no servers")
	}
	if len(opts.Clients) == 0 {
		return nil, errors.New("shard: no clients")
	}
	if opts.Capacities != nil && len(opts.Capacities) != len(opts.Servers) {
		return nil, fmt.Errorf("shard: %d capacities for %d servers", len(opts.Capacities), len(opts.Servers))
	}
	for i, c := range opts.Clients {
		if err := c.Valid(); err != nil {
			return nil, fmt.Errorf("shard: client %d: %w", i, err)
		}
	}
	for k, c := range opts.Servers {
		if err := c.Valid(); err != nil {
			return nil, fmt.Errorf("shard: server %d: %w", k, err)
		}
	}
	// Every entry is latency.CoordLatency over the plane's node ids, so
	// it is bit-identical to the corresponding entry of any instance
	// built over the same nodes — a scenario population's included.
	in, err := core.NewInstanceCoords(cs, serverNodes, clientNodes)
	if err != nil {
		return nil, err
	}
	ev, err := in.NewEvaluator(core.NewAssignment(len(clientNodes)))
	if err != nil {
		return nil, err
	}
	opts.Capacities = slices.Clone(opts.Capacities)

	p := &Plane{
		opts:        opts,
		ev:          ev,
		strat:       opts.Strategy,
		eff:         opts.Capacities,
		alive:       make([]bool, len(opts.Servers)),
		serverNodes: serverNodes,
		clientNodes: clientNodes,
		numNodes:    len(cs),
		met:         newPlaneMetrics(opts.Metrics),
		tracer:      opts.Tracer,
		flight:      opts.Flight,
	}
	if opts.Flight != nil {
		p.jFailover = opts.Flight.Journal(JournalFailover, 0)
		p.jEpoch = opts.Flight.Journal(JournalEpoch, 0)
		p.jSuppressed = opts.Flight.Journal(JournalSuppressed, 0)
	}
	for k := range p.alive {
		p.alive[k] = true
	}
	p.installDeltaHook()
	p.installSuppressHook()
	p.mu.Lock()
	p.publishLocked(context.Background())
	p.mu.Unlock()
	return p, nil
}

// installDeltaHook attaches the evaluator delta hook, which records
// every applied delta as an evaluator.* event on the current
// mutation's span. Called from newPlane and again from ApplyDrift,
// whose fresh evaluator would silently drop it. The hook fires only
// while a mutation holds p.mu, so reading p.curSpan is safe.
func (p *Plane) installDeltaHook() {
	if p.tracer == nil {
		return
	}
	p.ev.SetDeltaHook(func(ev core.DeltaEvent) {
		if p.curSpan == nil {
			// Unsampled mutation: skip attr rendering entirely —
			// Event would discard it, but its arguments are built
			// eagerly, and this hook sits on the evaluator hot path.
			return
		}
		p.curSpan.Event("evaluator."+ev.Op,
			obs.Int("client", ev.Client),
			obs.Int("server", ev.Server),
			obs.F64("d", ev.D),
			obs.Int("heapOps", ev.HeapOps),
			obs.Int("pairTouches", ev.PairTouches),
			obs.Int("pairRescans", ev.PairRescans))
	})
}

// installSuppressHook records every proposal a hysteresis strategy
// suppresses as a hysteresis.suppress event on the current mutation's
// span and in the suppressed journal. The hook fires only inside a
// Repair, which holds p.mu.
func (p *Plane) installSuppressHook() {
	h, ok := p.strat.(*dynamic.Hysteresis)
	if !ok || (p.tracer == nil && p.jSuppressed == nil) {
		return
	}
	h.OnSuppress = func(now float64, moves int, gain float64, reason string) {
		p.curSpan.Event("hysteresis.suppress",
			obs.Int("moves", moves),
			obs.F64("gain", gain),
			obs.Str("reason", reason))
		p.jSuppressed.Record(reason, p.curSpan.TraceID(),
			obs.Int("moves", moves),
			obs.F64("gain", gain),
			obs.F64("now", now))
	}
}

// NumServers returns the server count.
func (p *Plane) NumServers() int { return len(p.opts.Servers) }

// NumClients returns the size of the client universe.
func (p *Plane) NumClients() int { return len(p.opts.Clients) }
