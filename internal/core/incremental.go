package core

import (
	"errors"
	"fmt"
	"math"
)

// Typed errors for the delta operations (ApplyJoin / ApplyLeave /
// ApplyMove). Control planes route these to client-visible conflict
// responses, so they must be matchable with errors.Is.
var (
	// ErrAlreadyAssigned reports a join for a client that is already
	// assigned to a server.
	ErrAlreadyAssigned = errors.New("core: client already assigned")
	// ErrNotAssigned reports a leave or migrate for a client that is not
	// currently assigned.
	ErrNotAssigned = errors.New("core: client not assigned")
)

// EvaluatorStats counts the work the evaluator has performed, split by
// kind: heap settles and per-server pair touches are the bounded work,
// pair rescans the O(U) repairs. Tests use the counters to assert that
// a given operation sequence stayed cheap — and that no-op moves
// perform no repair work at all.
type EvaluatorStats struct {
	// Recomputes is always zero: D is never rebuilt by a full pair
	// scan. The field stays because perfbench's churn pass reads it.
	Recomputes int
	// EccScans is always zero: eccentricities are repaired through the
	// distance heaps, never by a client scan. The field stays because
	// perfbench's churn pass reads it.
	EccScans int
	// HeapOps counts per-server distance-heap pushes and removals.
	HeapOps int
	// PairTouches counts O(1) candidate updates of another server's
	// cached best pair value.
	PairTouches int
	// PairRescans counts O(U) rebuilds of one server's best pair value
	// (needed when a cached witness goes stale).
	PairRescans int
}

// DeltaEvent describes one applied delta operation: what moved, the
// resulting D, and the incremental work it cost (stats deltas for this
// event alone). Consumers attribute per-event evaluator work to traces
// without core importing any observability package.
type DeltaEvent struct {
	// Op is "join", "leave", or "move".
	Op string
	// Client is the client that moved; Server its new server (Unassigned
	// for a leave).
	Client, Server int
	// D is the maintained global D after the event.
	D float64
	// HeapOps, PairTouches, and PairRescans are this event's share of the
	// corresponding EvaluatorStats counters.
	HeapOps, PairTouches, PairRescans int
}

// SetDeltaHook installs fn to observe every ApplyJoin / ApplyLeave /
// ApplyMove (nil removes it). The hook fires synchronously after the
// delta is applied; it must not mutate the evaluator. Plain Move calls
// (batch solvers, strategy repairs) do not fire it — the hook attributes
// control-plane events, not search iterations.
func (ev *Evaluator) SetDeltaHook(fn func(DeltaEvent)) { ev.deltaHook = fn }

// applyTracked runs one delta through the incremental engine and feeds
// the hook, measuring the per-event work only when someone is listening.
//
//dialint:hotpath
func (ev *Evaluator) applyTracked(op string, c, s int) float64 {
	if ev.deltaHook == nil {
		return ev.moveIncremental(c, s)
	}
	before := ev.stats
	d := ev.moveIncremental(c, s)
	ev.deltaHook(DeltaEvent{
		Op:          op,
		Client:      c,
		Server:      s,
		D:           d,
		HeapOps:     ev.stats.HeapOps - before.HeapOps,
		PairTouches: ev.stats.PairTouches - before.PairTouches,
		PairRescans: ev.stats.PairRescans - before.PairRescans,
	})
	return d
}

// Stats returns the work counters accumulated so far.
func (ev *Evaluator) Stats() EvaluatorStats { return ev.stats }

// ResetStats zeroes the work counters.
func (ev *Evaluator) ResetStats() { ev.stats = EvaluatorStats{} }

// newIncState builds the incremental D engine over ev's assignment:
// per-server eccentricities are backed by lazy-deletion max-heaps over
// client distances, and D is maintained through cached per-server best
// pair values under a lazy global max-heap, so a churn event (join,
// leave, migrate) costs O(U + log) instead of an O(|C| + U²) rescan.
// The maintained D is bit-identical to MaxInteractionPath for the same
// assignment (both take maxima over the same canonical pair sums — see
// pairPath).
func newIncState(ev *Evaluator) *incState {
	ns := ev.in.NumServers()
	st := &incState{
		ev:       ev,
		trackers: make([]maxTracker, ns),
		contrib:  make([]float64, ns),
		argmax:   make([]int, ns),
		usedPos:  make([]int, ns),
		ver:      make([]uint64, ns),
	}
	for k := 0; k < ns; k++ {
		st.usedPos[k] = -1
		st.argmax[k] = -1
	}
	for c, s := range ev.a {
		if s != Unassigned {
			st.trackers[s].push(ev.in.cs[c][s])
		}
	}
	for k := 0; k < ns; k++ {
		if ev.ecc[k] >= 0 {
			st.addUsed(k)
		}
	}
	for _, s := range st.used {
		st.rescan(s)
	}
	return st
}

// ApplyJoin assigns the currently-unassigned client c to server s and
// returns the new D.
func (ev *Evaluator) ApplyJoin(c, s int) (float64, error) {
	if err := ev.checkDelta(c, s); err != nil {
		return 0, err
	}
	if s == Unassigned {
		return 0, fmt.Errorf("core: join of client %d: target must be a server", c)
	}
	if ev.a[c] != Unassigned {
		return 0, fmt.Errorf("%w: join of client %d (on server %d)", ErrAlreadyAssigned, c, ev.a[c])
	}
	return ev.applyTracked("join", c, s), nil
}

// ApplyLeave removes client c from its server and returns the new D.
func (ev *Evaluator) ApplyLeave(c int) (float64, error) {
	if err := ev.checkDelta(c, Unassigned); err != nil {
		return 0, err
	}
	if ev.a[c] == Unassigned {
		return 0, fmt.Errorf("%w: leave of client %d", ErrNotAssigned, c)
	}
	return ev.applyTracked("leave", c, Unassigned), nil
}

// ApplyMove migrates the currently-assigned client c to server s and
// returns the new D. Moving a client to its current server is a no-op
// and performs no repair work.
func (ev *Evaluator) ApplyMove(c, s int) (float64, error) {
	if err := ev.checkDelta(c, s); err != nil {
		return 0, err
	}
	if s == Unassigned {
		return 0, fmt.Errorf("core: migrate of client %d: target must be a server (use ApplyLeave)", c)
	}
	if ev.a[c] == Unassigned {
		return 0, fmt.Errorf("%w: migrate of client %d", ErrNotAssigned, c)
	}
	return ev.applyTracked("move", c, s), nil
}

func (ev *Evaluator) checkDelta(c, s int) error {
	if c < 0 || c >= len(ev.a) {
		return fmt.Errorf("core: client %d out of range [0,%d)", c, len(ev.a))
	}
	if s != Unassigned && (s < 0 || s >= ev.in.NumServers()) {
		return fmt.Errorf("core: server %d out of range [0,%d)", s, ev.in.NumServers())
	}
	return nil
}

// moveIncremental is Move without the range checks: the affected
// servers' eccentricities are repaired through their distance heaps and
// the global max is repaired through the cached pair values, with no
// O(|C|) scan and no O(U²) pair walk.
//
//dialint:hotpath
func (ev *Evaluator) moveIncremental(c, s int) float64 {
	st := ev.inc
	old := ev.a[c]
	if old == s {
		return ev.d
	}
	if old != Unassigned {
		ev.loads[old]--
		st.trackers[old].remove(ev.in.cs[c][old])
		ev.stats.HeapOps++
		if ne := st.trackers[old].max(); math.Float64bits(ne) != math.Float64bits(ev.ecc[old]) {
			ev.ecc[old] = ne
			st.eccChanged(old, true)
		}
	}
	ev.a[c] = s
	if s != Unassigned {
		ev.loads[s]++
		wasUsed := ev.ecc[s] >= 0
		st.trackers[s].push(ev.in.cs[c][s])
		ev.stats.HeapOps++
		if v := ev.in.cs[c][s]; v > ev.ecc[s] {
			ev.ecc[s] = v
			st.eccChanged(s, wasUsed)
		}
	}
	ev.d = st.currentD()
	return ev.d
}

// incState is the incremental D engine. Invariants, maintained after
// every delta operation:
//
//   - trackers[s] holds the multiset of distances from server s to its
//     assigned clients; its max equals ev.ecc[s] bit-for-bit (-1 when
//     empty, matching Instance.Eccentricities).
//   - used lists exactly the servers with at least one client
//     (ev.ecc[s] >= 0); usedPos is its inverse (-1 when unused).
//   - For every used s, contrib[s] = max over used t of pairPath(s, t)
//     (t = s included: the degenerate one-server path), and argmax[s]
//     is a witness partner attaining it.
//   - top is a lazy max-heap over (contrib[s], s, ver[s]); entries
//     whose version does not match ver[s] are stale and skipped, so
//     the live top of the heap is D.
//
// Repair cost per eccentricity change is O(U) touches plus O(U) per
// witness-invalidated rescan; rescans are only needed when an
// eccentricity decreases (an increase of ecc[s] can only improve pairs
// involving s, because float64 addition is monotone in each argument).
type incState struct {
	ev       *Evaluator
	trackers []maxTracker
	contrib  []float64
	argmax   []int
	used     []int
	usedPos  []int
	ver      []uint64
	top      []topEntry
}

type topEntry struct {
	d   float64
	s   int
	ver uint64
}

// pairPath returns the canonical interaction-path value for used
// servers s and t: the lower-indexed server's eccentricity enters the
// sum first, exactly as perfkit.MaxPathEcc associates it, so maxima
// over these values are bit-identical to MaxInteractionPath.
func (st *incState) pairPath(s, t int) float64 {
	if s > t {
		s, t = t, s
	}
	return st.ev.ecc[s] + st.ev.in.ss[s][t] + st.ev.ecc[t]
}

func (st *incState) addUsed(s int) {
	st.usedPos[s] = len(st.used)
	st.used = append(st.used, s)
}

func (st *incState) removeUsed(s int) {
	i := st.usedPos[s]
	last := len(st.used) - 1
	st.used[i] = st.used[last]
	st.usedPos[st.used[i]] = i
	st.used = st.used[:last]
	st.usedPos[s] = -1
}

// rescan rebuilds contrib[s] from scratch over the used list.
func (st *incState) rescan(s int) {
	best := math.Inf(-1)
	arg := -1
	for _, t := range st.used {
		if v := st.pairPath(s, t); v > best {
			best, arg = v, t
		}
	}
	st.contrib[s], st.argmax[s] = best, arg
	st.push(s)
	st.ev.stats.PairRescans++
}

// push publishes contrib[s] to the global heap under a fresh version,
// implicitly retiring any earlier entry for s.
func (st *incState) push(s int) {
	st.ver[s]++
	st.top = append(st.top, topEntry{d: st.contrib[s], s: s, ver: st.ver[s]})
	st.siftUp(len(st.top) - 1)
	// Lazy deletion lets retired entries pile up; once the heap is far
	// larger than one live entry per used server, rebuild it from the
	// live contribs (deterministic: iterates the used list).
	if len(st.top) > 4*len(st.used)+64 {
		st.top = st.top[:0]
		for _, t := range st.used {
			st.top = append(st.top, topEntry{d: st.contrib[t], s: t, ver: st.ver[t]})
		}
		for i := len(st.top)/2 - 1; i >= 0; i-- {
			st.siftDown(i)
		}
	}
}

// currentD pops stale entries off the global heap and returns the live
// maximum (0 with no used servers, matching MaxPathEcc).
func (st *incState) currentD() float64 {
	for len(st.top) > 0 {
		e := st.top[0]
		if st.ver[e.s] == e.ver {
			return e.d
		}
		last := len(st.top) - 1
		st.top[0] = st.top[last]
		st.top = st.top[:last]
		if len(st.top) > 0 {
			st.siftDown(0)
		}
	}
	return 0
}

func (st *incState) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if st.top[i].d <= st.top[p].d {
			return
		}
		st.top[i], st.top[p] = st.top[p], st.top[i]
		i = p
	}
}

func (st *incState) siftDown(i int) {
	n := len(st.top)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && st.top[l].d > st.top[m].d {
			m = l
		}
		if r < n && st.top[r].d > st.top[m].d {
			m = r
		}
		if m == i {
			return
		}
		st.top[i], st.top[m] = st.top[m], st.top[i]
		i = m
	}
}

// eccChanged repairs the pair caches after ev.ecc[s] was updated.
// wasUsed is whether s had clients before the change.
func (st *incState) eccChanged(s int, wasUsed bool) {
	nowUsed := st.ev.ecc[s] >= 0
	switch {
	case !wasUsed && nowUsed:
		// s enters the used set: compute its own best pair, and offer the
		// new pairs (t, s) to every other used server. A new pair can only
		// raise another server's max, never invalidate it.
		st.addUsed(s)
		st.rescan(s)
		for _, t := range st.used {
			if t == s {
				continue
			}
			st.ev.stats.PairTouches++
			if v := st.pairPath(t, s); v >= st.contrib[t] {
				st.contrib[t], st.argmax[t] = v, s
				st.push(t)
			}
		}
	case wasUsed && !nowUsed:
		// s leaves the used set: retire its heap entries and rebuild any
		// server whose cached witness was s.
		st.removeUsed(s)
		st.ver[s]++
		for _, t := range st.used {
			st.ev.stats.PairTouches++
			if st.argmax[t] == s {
				st.rescan(t)
			}
		}
	case wasUsed && nowUsed:
		// s stays used with a new eccentricity: its own best pair is
		// rebuilt, and every other server re-evaluates its pair with s. If
		// that pair now beats the cached max it becomes the new witness;
		// if it shrank and s was the witness, only then is a rescan
		// needed (float64 addition is monotone, so no other pair moved).
		st.rescan(s)
		for _, t := range st.used {
			if t == s {
				continue
			}
			st.ev.stats.PairTouches++
			v := st.pairPath(t, s)
			switch {
			case v >= st.contrib[t]:
				st.contrib[t], st.argmax[t] = v, s
				st.push(t)
			case st.argmax[t] == s:
				st.rescan(t)
			}
		}
	}
}

// maxTracker is a lazy-deletion max-heap over float64 distances: the
// multiset of distances from one server to its clients. remove defers
// deletions into a shadow heap and cancels them when they reach the
// top, so both operations are O(log n) amortized. Distances are
// compared for cancellation by their exact bit patterns — a removed
// value is always one that was previously pushed, so bit equality is
// the correct (and deterministic) match.
type maxTracker struct {
	live floatMaxHeap
	dead floatMaxHeap
}

func (t *maxTracker) push(v float64) {
	t.live.push(v)
	t.settle()
}

func (t *maxTracker) remove(v float64) {
	t.dead.push(v)
	t.settle()
}

// settle cancels deferred deletions sitting at the top of both heaps.
func (t *maxTracker) settle() {
	for len(t.dead) > 0 && len(t.live) > 0 &&
		math.Float64bits(t.live[0]) == math.Float64bits(t.dead[0]) {
		t.live.pop()
		t.dead.pop()
	}
}

// max returns the largest live distance, or -1 when the multiset is
// empty — the same sentinel the eccentricity vector uses for servers
// with no clients.
func (t *maxTracker) max() float64 {
	if len(t.live) == 0 {
		return -1
	}
	return t.live[0]
}

// floatMaxHeap is a plain binary max-heap over float64. Latencies are
// finite and non-negative (the matrix is validated on load), so plain >
// ordering is total here.
type floatMaxHeap []float64

func (h *floatMaxHeap) push(v float64) {
	*h = append(*h, v)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[i] <= a[p] {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

func (h *floatMaxHeap) pop() float64 {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	*h = a[:last]
	a = *h
	i, n := 0, len(a)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && a[l] > a[m] {
			m = l
		}
		if r < n && a[r] > a[m] {
			m = r
		}
		if m == i {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}
