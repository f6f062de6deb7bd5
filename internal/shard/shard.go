// Package shard is the horizontally sharded assignment control plane:
// the client universe is partitioned across N shards along the
// internal/scale cell decomposition, each shard owns a capacitated
// sub-instance with its own incremental evaluator and online strategy,
// and the merged world state is published as immutable snapshots behind
// a monotone epoch counter swapped through an atomic pointer — reads on
// the serving path never take a lock.
//
// The global objective survives the partition exactly: every shard
// shares the full server set, a server's true eccentricity is the max
// of its per-shard eccentricities (a max over a disjoint union is the
// max of the per-part maxima, float-exactly), and D is the
// perfkit.MaxPathEcc pair scan over those merged eccentricities —
// bit-identical to a single evaluator over the unpartitioned world.
// Alongside the exact D the plane maintains a certified upper bound
// from cell-level summaries in the style of internal/scale's expansion
// bound: each client's distance to its server is over-approximated by
// its cell representative's distance plus the cell radius ρ, so
// D ≤ CertifiedD ≤ D + 4·max ρ (2·max ρ per pair endpoint) without
// ever touching per-client state.
//
// Mutations (Join, Leave, Migrate, server kill/restart, coordinate
// drift) route to the owning shard and cost O(shard repair), not
// O(world): the shard evaluators run the incremental D engine of
// internal/core.
package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"diacap/internal/core"
	"diacap/internal/dynamic"
	"diacap/internal/latency"
	"diacap/internal/obs"
	"diacap/internal/scale"
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
)

// StrategyFactory builds one online strategy per shard. Each shard gets
// its own instance so stateful strategies (hysteresis budgets, periodic
// clocks) stay shard-local; in is the shard's sub-instance.
type StrategyFactory func(in *core.Instance) dynamic.Strategy

// Options configures New.
type Options struct {
	// Shards is the number of shards (default 1).
	Shards int
	// Servers are the server coordinates (required). Every shard sees
	// the full server set.
	Servers []latency.Coord
	// Clients is the client universe (required); client id i is
	// Clients[i]. Clients start inactive and enter through Join.
	Clients []latency.Coord
	// Capacities are per-server capacities (nil = uncapacitated), one
	// pool: a shard decides against its own load plus the world's room.
	Capacities core.Capacities
	// MaxCells bounds the cell decomposition used for partitioning
	// (default scale.DefaultMaxCells).
	MaxCells int
	// KMeansIters refines the cell covering (default 8, matching
	// internal/scale).
	KMeansIters int
	// Strategy builds each shard's online strategy (default GreedyJoin:
	// minimize D on every placement, no repair).
	Strategy StrategyFactory
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
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.MaxCells == 0 {
		o.MaxCells = scale.DefaultMaxCells
	}
	if o.KMeansIters == 0 {
		o.KMeansIters = 8
	}
	if o.KMeansIters < 0 {
		o.KMeansIters = 0
	}
	if o.Strategy == nil {
		o.Strategy = func(in *core.Instance) dynamic.Strategy { return dynamic.NewGreedyJoin(in) }
	}
}

// Plane is the sharded control plane. Mutations are serialized by an
// internal mutex; snapshot reads are lock-free (Current / At).
type Plane struct {
	opts  Options
	cells []scale.Cell
	// cellShard[j] is the shard owning cell j; clientShard/clientLocal
	// map a client id to its shard and its index inside the shard's
	// sub-instance.
	cellShard   []int
	clientShard []int
	clientLocal []int
	clientCell  []int
	// certDist[j][k] bounds the distance from every member of cell j to
	// server k: the (floored) latency from the cell's representative to
	// k plus the cell radius ρ.
	certDist [][]float64
	maxRho   float64

	shards []*shardState
	alive  []bool
	dead   int

	// The world as the next snapshot publishes it, kept up to date by
	// noteAssign: assign[c] is client c's server (core.Unassigned when
	// inactive) and loads[k] counts the clients on server k. cellLoad
	// [j·|S| + k] counts the active clients of cell j on server k; the
	// owning shard's certified bound is a max over its nonzero entries.
	assign   []int
	loads    []int
	cellLoad []int32
	// eccBuf and boundBuf are publish's scratch for the merged vectors;
	// dScan and certScan cache the pair scans over them.
	eccBuf, boundBuf []float64
	dScan, certScan  pairScan
	// dAttr is the epoch journal's rendered "d" for the D whose bits are
	// dAttrBits.
	dAttr     obs.Attr
	dAttrBits uint64

	// serverNodes/clientNodes map server and client ids to node ids of
	// the plane's node space, numNodes coordinates long: [servers ∥
	// clients] for New, the population's own node order for
	// NewFromPopulation. Shard sub-instances are built, and rebuilt on
	// drift, from coordinates indexed by these ids.
	serverNodes []int
	clientNodes []int
	numNodes    int
	// drifted marks that the latency space no longer matches the cell
	// geometry; the certified bound then degrades to the exact
	// eccentricities (see rebuildSummary).
	drifted bool

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

// shardState is one shard's mutable world.
type shardState struct {
	id int
	// clients[i] is the global client id of shard-local client i,
	// ascending.
	clients []int
	in      *core.Instance
	ev      *core.Evaluator
	// effCaps is what the strategy decides against: refreshCaps's view
	// of the pool, or EffectiveCaps(nil, alive, …) when uncapacitated.
	effCaps core.Capacities
	strat   dynamic.Strategy
	active  int
	// cells are the plane cells this shard owns, ascending.
	cells []int
	// bound[k] is the shard's certified bound on server k: the max of
	// certDist[j][k] over its cells j with clients on k (-1 when none).
	// noteAssign keeps it current.
	bound []float64
	// dirty marks that the shard's summary must be rebuilt at the next
	// publish.
	dirty bool
	// summary is the last published per-shard summary; summaryEpoch is
	// the epoch at which it was last rebuilt (a stale shard shows an old
	// value here while the plane epoch keeps advancing).
	summary      ShardSummary
	summaryEpoch uint64
	// lastRepair is the wall time of the last strategy repair pass run
	// for this shard (zero until the first RepairShard).
	lastRepair time.Time
}

// New builds a plane over the client universe: cluster the clients into
// cells, balance the cells across shards (largest cell first onto the
// least-loaded shard — deterministic LPT), build each shard's
// sub-instance over the servers and the shard's clients, and publish
// the empty epoch-1 snapshot. All clients start inactive. The plane's
// node space is [servers ∥ clients]: server k is node k and client i is
// node len(Servers)+i.
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
	if opts.Shards > len(opts.Clients) {
		opts.Shards = len(opts.Clients)
	}

	cells, err := scale.Cluster(opts.Clients, opts.MaxCells, opts.KMeansIters)
	if err != nil {
		return nil, err
	}
	// Cells are the unit of partition, so more shards than populated
	// cells would leave shards with no clients (an invalid sub-instance).
	// Clamp: the LPT pass below then lands one populated cell on every
	// shard before doubling up.
	populated := 0
	for _, cell := range cells {
		if len(cell.Members) > 0 {
			populated++
		}
	}
	if opts.Shards > populated {
		opts.Shards = populated
	}

	p := &Plane{
		opts:        opts,
		cells:       cells,
		cellShard:   make([]int, len(cells)),
		clientShard: make([]int, len(opts.Clients)),
		clientLocal: make([]int, len(opts.Clients)),
		clientCell:  make([]int, len(opts.Clients)),
		serverNodes: serverNodes,
		clientNodes: clientNodes,
		numNodes:    len(cs),
		certDist:    make([][]float64, len(cells)),
		alive:       make([]bool, len(opts.Servers)),
		assign:      make([]int, len(opts.Clients)),
		loads:       make([]int, len(opts.Servers)),
		cellLoad:    make([]int32, len(cells)*len(opts.Servers)),
		eccBuf:      make([]float64, len(opts.Servers)),
		boundBuf:    make([]float64, len(opts.Servers)),
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
	for c := range p.assign {
		p.assign[c] = core.Unassigned
	}
	for j, cell := range cells {
		row := make([]float64, len(opts.Servers))
		for k, sc := range opts.Servers {
			// Floored like latency.CoordLatency entries, so the
			// bound rep→server + ρ dominates the (floored)
			// member→server distances even for coincident
			// coordinates.
			row[k] = max(cell.Rep.LatencyTo(sc), 1e-9) + cell.Rho
		}
		p.certDist[j] = row
		if cell.Rho > p.maxRho {
			p.maxRho = cell.Rho
		}
		for _, m := range cell.Members {
			p.clientCell[m] = j
		}
	}
	p.partition()
	if err := p.buildShards(cs); err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.publishLocked(context.Background())
	p.mu.Unlock()
	return p, nil
}

// partition assigns cells to shards: cells sorted by descending member
// count (ascending index on ties) go greedily onto the shard with the
// fewest clients so far (lowest id on ties). Deterministic and
// balanced within one max-cell size.
func (p *Plane) partition() {
	order := make([]int, len(p.cells))
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(x, y int) bool {
		cx, cy := len(p.cells[order[x]].Members), len(p.cells[order[y]].Members)
		if cx != cy {
			return cx > cy
		}
		return order[x] < order[y]
	})
	loads := make([]int, p.opts.Shards)
	for _, j := range order {
		best := 0
		for s := 1; s < len(loads); s++ {
			if loads[s] < loads[best] {
				best = s
			}
		}
		p.cellShard[j] = best
		loads[best] += len(p.cells[j].Members)
		for _, m := range p.cells[j].Members {
			p.clientShard[m] = best
		}
	}
}

// buildShards builds each shard's sub-instance from the node-indexed
// coordinates cs. Every entry is latency.CoordLatency over the plane's
// node ids, so it is bit-identical to the corresponding entry of the
// unpartitioned instance over the same nodes — with one shard the
// sub-instance IS the unsharded instance.
func (p *Plane) buildShards(cs []latency.Coord) error {
	p.shards = make([]*shardState, p.opts.Shards)
	members := make([][]int, p.opts.Shards)
	for c := range p.opts.Clients {
		s := p.clientShard[c]
		p.clientLocal[c] = len(members[s])
		members[s] = append(members[s], c)
	}
	owned := make([][]int, p.opts.Shards)
	for j, s := range p.cellShard {
		owned[s] = append(owned[s], j)
	}

	for s := 0; s < p.opts.Shards; s++ {
		in, err := p.shardInstance(cs, members[s])
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		ev, err := in.NewEvaluator(core.NewAssignment(len(members[s])))
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		bound := make([]float64, len(p.opts.Servers))
		for k := range bound {
			bound[k] = -1
		}
		p.shards[s] = &shardState{
			id:      s,
			clients: members[s],
			in:      in,
			ev:      ev,
			effCaps: slices.Clone(p.opts.Capacities),
			strat:   p.opts.Strategy(in),
			cells:   owned[s],
			bound:   bound,
			dirty:   true,
		}
		p.installHooks(p.shards[s])
	}
	return nil
}

// shardInstance builds the sub-instance over every server and the given
// clients (ascending ids) from node-indexed coordinates cs.
func (p *Plane) shardInstance(cs []latency.Coord, clients []int) (*core.Instance, error) {
	nodes := make([]int, len(clients))
	for i, c := range clients {
		nodes[i] = p.clientNodes[c]
	}
	return core.NewInstanceCoords(cs, p.serverNodes, nodes)
}

// installHooks attaches the evaluator delta hook and the hysteresis
// suppression hook to one shard's evaluator and strategy. Called from
// buildShards and again from ApplyDrift — a drift builds fresh
// evaluators, which would silently drop the previous hook. Both hooks
// fire only while a mutation holds p.mu, so reading p.curSpan is safe.
func (p *Plane) installHooks(sh *shardState) {
	shard := sh.id
	if p.tracer != nil {
		sh.ev.SetDeltaHook(func(ev core.DeltaEvent) {
			if p.curSpan == nil {
				// Unsampled mutation: skip attr rendering entirely —
				// Event would discard it, but its arguments are built
				// eagerly, and this hook sits on the evaluator hot path.
				return
			}
			p.curSpan.Event("evaluator."+ev.Op,
				obs.Int("shard", shard),
				obs.Int("client", ev.Client),
				obs.Int("server", ev.Server),
				obs.F64("d", ev.D),
				obs.Int("heapOps", ev.HeapOps),
				obs.Int("pairTouches", ev.PairTouches),
				obs.Int("pairRescans", ev.PairRescans))
		})
	}
	if h, ok := sh.strat.(*dynamic.Hysteresis); ok && (p.tracer != nil || p.jSuppressed != nil) {
		h.OnSuppress = func(now float64, moves int, gain float64, reason string) {
			p.curSpan.Event("hysteresis.suppress",
				obs.Int("shard", shard),
				obs.Int("moves", moves),
				obs.F64("gain", gain),
				obs.Str("reason", reason))
			p.jSuppressed.Record(reason, p.curSpan.TraceID(),
				obs.Int("shard", shard),
				obs.Int("moves", moves),
				obs.F64("gain", gain),
				obs.F64("now", now))
		}
	}
}

// NumShards returns the shard count.
func (p *Plane) NumShards() int { return len(p.shards) }

// NumServers returns the server count.
func (p *Plane) NumServers() int { return len(p.opts.Servers) }

// NumClients returns the size of the client universe.
func (p *Plane) NumClients() int { return len(p.opts.Clients) }

// NumCells returns the number of partition cells.
func (p *Plane) NumCells() int { return len(p.cells) }

// ShardOf returns the shard owning client c, or an error for ids
// outside the universe.
func (p *Plane) ShardOf(c int) (int, error) {
	if c < 0 || c >= len(p.clientShard) {
		return 0, fmt.Errorf("%w: id %d (universe size %d)", ErrUnknownClient, c, len(p.clientShard))
	}
	return p.clientShard[c], nil
}

// Route returns the shard a client at the given coordinate would be
// assigned to: the shard owning the nearest cell representative
// (geometric tie broken toward the lower cell index). This is the
// request-path router — O(cells), no lock.
func (p *Plane) Route(at latency.Coord) (shard, cell int) {
	best := 0
	bestD := at.LatencyTo(p.cells[0].Rep)
	for j := 1; j < len(p.cells); j++ {
		if d := at.LatencyTo(p.cells[j].Rep); d < bestD {
			best, bestD = j, d
		}
	}
	return p.cellShard[best], best
}
