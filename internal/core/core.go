// Package core defines the client assignment problem of Zhang & Tang
// (ICDCS 2011): problem instances, client-to-server assignments, the
// interaction-path objective, the super-optimal lower bound used for
// normalization in the paper's evaluation, and the simulation-time offsets
// that achieve the minimum interaction time δ = D (Section II-C).
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"diacap/internal/latency"
	"diacap/internal/perfkit"
)

// Unassigned marks a client without an assigned server inside a partial
// Assignment.
const Unassigned = -1

// ErrInvalidInstance reports a malformed problem instance.
var ErrInvalidInstance = errors.New("core: invalid instance")

// ErrInvalidAssignment reports a malformed or incomplete assignment.
var ErrInvalidAssignment = errors.New("core: invalid assignment")

// Instance is one client assignment problem: the latencies between a
// set of nodes, and the subsets of those nodes acting as servers and
// clients.
//
// Servers and Clients hold node indices (into the latency matrix or the
// coordinate slice the instance was built from). A node may appear in
// both sets (a machine can host a server and a participant). The
// objective reads only client-to-server and server-to-server latency, so
// an instance keeps exactly those two tables, precomputed for the hot
// loops of the assignment algorithms. Instances are immutable after
// construction.
type Instance struct {
	servers []int
	clients []int

	// cs[i][k] = d(client i, server k); ss[k][l] = d(server k, server l).
	// Both are row views into the flat, cache-line-aligned csF/ssF
	// storage, so indexed access and the perfkit kernels see the same
	// bytes.
	cs [][]float64
	ss [][]float64

	// csF/ssF are the perfkit layouts the hot-path kernels run over.
	csF *perfkit.FlatMatrix
	ssF *perfkit.FlatMatrix

	lbOnce     sync.Once // guards the lazily computed lower bound
	lowerBound float64
}

// NewInstance validates the inputs and builds an instance. The latency
// matrix must be valid per latency.Matrix.Validate semantics; callers
// whose matrices come from this module's generators can rely on that and
// skip revalidation with NewInstanceTrusted.
func NewInstance(m latency.Matrix, servers, clients []int) (*Instance, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInstance, err)
	}
	return NewInstanceTrusted(m, servers, clients)
}

// NewInstanceTrusted is NewInstance without re-validating the latency
// matrix. The server and client index sets are still checked.
func NewInstanceTrusted(m latency.Matrix, servers, clients []int) (*Instance, error) {
	return newInstance(m.Len(), func(u, v int) float64 { return m[u][v] }, servers, clients)
}

// NewInstanceCoords builds, bit for bit, the instance
// NewInstanceTrusted(latency.CoordsToMatrix(cs), servers, clients)
// builds, without materializing the node×node matrix: servers and
// clients index cs, and every table entry is latency.CoordLatency.
func NewInstanceCoords(cs []latency.Coord, servers, clients []int) (*Instance, error) {
	return newInstance(len(cs), func(u, v int) float64 { return latency.CoordLatency(cs, u, v) }, servers, clients)
}

// newInstance checks the index sets against n nodes and fills the two
// tables from dist(node, node).
func newInstance(n int, dist func(u, v int) float64, servers, clients []int) (*Instance, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("%w: no servers", ErrInvalidInstance)
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("%w: no clients", ErrInvalidInstance)
	}
	seenS := make(map[int]bool, len(servers))
	for _, s := range servers {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("%w: server node %d out of range [0,%d)", ErrInvalidInstance, s, n)
		}
		if seenS[s] {
			return nil, fmt.Errorf("%w: duplicate server node %d", ErrInvalidInstance, s)
		}
		seenS[s] = true
	}
	seenC := make(map[int]bool, len(clients))
	for _, c := range clients {
		if c < 0 || c >= n {
			return nil, fmt.Errorf("%w: client node %d out of range [0,%d)", ErrInvalidInstance, c, n)
		}
		if seenC[c] {
			return nil, fmt.Errorf("%w: duplicate client node %d", ErrInvalidInstance, c)
		}
		seenC[c] = true
	}

	inst := &Instance{
		servers: append([]int(nil), servers...),
		clients: append([]int(nil), clients...),
	}
	inst.csF = perfkit.NewFlatMatrix(len(clients), len(servers))
	inst.cs = make([][]float64, len(clients))
	for i, c := range inst.clients {
		row := inst.csF.Row(i)
		for k, s := range inst.servers {
			row[k] = dist(c, s)
		}
		inst.cs[i] = row
	}
	inst.ssF = perfkit.NewFlatMatrix(len(servers), len(servers))
	inst.ss = make([][]float64, len(servers))
	for k, s := range inst.servers {
		row := inst.ssF.Row(k)
		for l, s2 := range inst.servers {
			row[l] = dist(s, s2)
		}
		inst.ss[k] = row
	}
	return inst, nil
}

// Restrict returns the sub-instance over the given clients
// (instance-local indices, distinct, non-empty) in the given order: it
// copies their client-to-server rows and shares the server set and the
// server-to-server table, which immutability makes safe. Client i of the
// result is client idx[i] of in.
func (in *Instance) Restrict(idx []int) *Instance {
	sub := &Instance{
		servers: in.servers,
		clients: make([]int, len(idx)),
		csF:     perfkit.NewFlatMatrix(len(idx), len(in.servers)),
		cs:      make([][]float64, len(idx)),
		ss:      in.ss,
		ssF:     in.ssF,
	}
	for i, c := range idx {
		sub.clients[i] = in.clients[c]
		sub.cs[i] = sub.csF.Row(i)
		copy(sub.cs[i], in.cs[c])
	}
	return sub
}

// NumServers returns |S|.
func (in *Instance) NumServers() int { return len(in.servers) }

// NumClients returns |C|.
func (in *Instance) NumClients() int { return len(in.clients) }

// ServerNode returns the node index of server k.
func (in *Instance) ServerNode(k int) int { return in.servers[k] }

// ClientNode returns the node index of client i.
func (in *Instance) ClientNode(i int) int { return in.clients[i] }

// ClientServerDist returns d(client i, server k) using instance-local
// indices.
func (in *Instance) ClientServerDist(i, k int) float64 { return in.cs[i][k] }

// ServerServerDist returns d(server k, server l) using instance-local
// indices.
func (in *Instance) ServerServerDist(k, l int) float64 { return in.ss[k][l] }

// ClientServerRow returns the distances from client i to every server.
// The returned slice is shared; callers must not mutate it.
func (in *Instance) ClientServerRow(i int) []float64 { return in.cs[i] }

// ServerServerRow returns the distances from server k to every server.
// The returned slice is shared; callers must not mutate it.
func (in *Instance) ServerServerRow(k int) []float64 { return in.ss[k] }

// FlatClientServer returns the client-to-server distance table in its
// flat perfkit layout (rows = clients, cols = servers). Callers must
// not mutate it; it shares storage with ClientServerRow.
func (in *Instance) FlatClientServer() *perfkit.FlatMatrix { return in.csF }

// FlatServerServer returns the server-to-server distance table in its
// flat perfkit layout. Callers must not mutate it.
func (in *Instance) FlatServerServer() *perfkit.FlatMatrix { return in.ssF }

// Assignment maps each client (by instance-local index) to a server
// (instance-local index), or Unassigned. The paper's sA(c).
type Assignment []int

// NewAssignment returns an all-Unassigned assignment for n clients.
func NewAssignment(n int) Assignment {
	a := make(Assignment, n)
	for i := range a {
		a[i] = Unassigned
	}
	return a
}

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment {
	return append(Assignment(nil), a...)
}

// Complete reports whether every client is assigned.
func (a Assignment) Complete() bool {
	for _, s := range a {
		if s == Unassigned {
			return false
		}
	}
	return true
}

// Validate checks that the assignment is complete and refers only to
// servers of the instance.
func (in *Instance) Validate(a Assignment) error {
	if len(a) != len(in.clients) {
		return fmt.Errorf("%w: length %d, want %d", ErrInvalidAssignment, len(a), len(in.clients))
	}
	for i, s := range a {
		if s == Unassigned {
			return fmt.Errorf("%w: client %d unassigned", ErrInvalidAssignment, i)
		}
		if s < 0 || s >= len(in.servers) {
			return fmt.Errorf("%w: client %d assigned to server %d out of range [0,%d)", ErrInvalidAssignment, i, s, len(in.servers))
		}
	}
	return nil
}

// Loads returns the number of clients assigned to each server.
// Unassigned clients are ignored.
func (in *Instance) Loads(a Assignment) []int {
	loads := make([]int, len(in.servers))
	for _, s := range a {
		if s != Unassigned {
			loads[s]++
		}
	}
	return loads
}

// UsedServers returns the instance-local indices of servers with at least
// one client, in ascending order.
func (in *Instance) UsedServers(a Assignment) []int {
	used := make([]bool, len(in.servers))
	for _, s := range a {
		if s != Unassigned {
			used[s] = true
		}
	}
	out := make([]int, 0, len(in.servers))
	for k, u := range used {
		if u {
			out = append(out, k)
		}
	}
	return out
}

// InteractionPath returns the length of the interaction path between
// clients i and j under assignment a:
//
//	d(ci, sA(ci)) + d(sA(ci), sA(cj)) + d(sA(cj), cj)
//
// For i == j this is the client's round-trip to its server. It panics if
// either client is unassigned.
func (in *Instance) InteractionPath(a Assignment, i, j int) float64 {
	si, sj := a[i], a[j]
	if si == Unassigned || sj == Unassigned {
		panic(fmt.Sprintf("core: InteractionPath(%d, %d) on unassigned client", i, j))
	}
	return in.cs[i][si] + in.ss[si][sj] + in.cs[j][sj]
}

// Eccentricities returns, for each server, the maximum distance to a
// client assigned to it, or -1 for servers with no clients.
func (in *Instance) Eccentricities(a Assignment) []float64 {
	ecc := make([]float64, len(in.servers))
	perfkit.EccInto(in.csF, a, ecc)
	return ecc
}

// MaxInteractionPath returns D, the maximum interaction-path length over
// all client pairs (including a client with itself), which by the paper's
// Section II-C analysis is the minimum achievable interaction time.
//
// It runs in O(|C| + U²) for U used servers using per-server
// eccentricities: for clients assigned to servers s and t,
// d(ci,s) + d(s,t) + d(t,cj) is maximized at ecc(s) + d(s,t) + ecc(t),
// and the s = t diagonal covers same-server pairs and self-interaction.
//
// Partial assignments are allowed: unassigned clients are ignored, and the
// result is the maximum over assigned pairs (0 when none).
//
// The eccentricity fill and the pair scan both run as perfkit kernels
// over the instance's flat tables. The call allocates its |S|-length
// eccentricity vector: loops that re-evaluate D per move run on an
// Evaluator instead.
func (in *Instance) MaxInteractionPath(a Assignment) float64 {
	ecc := make([]float64, len(in.servers))
	perfkit.EccInto(in.csF, a, ecc)
	return perfkit.MaxPathEcc(in.ssF, ecc)
}

// MaxPathNaive computes D by direct enumeration of all client pairs in
// O(|C|²): the maximum over assigned pairs i ≤ j of
// d(ci, sA(ci)) + d(sA(ci), sA(cj)) + d(sA(cj), cj), added in
// InteractionPath's order. It exists as an oracle for testing
// MaxInteractionPath and as the full-pair evaluator for audits that
// deliberately avoid the eccentricity shortcut; no serving or solving
// path calls it. Client i's own distance and server row are read once
// per row, not once per pair.
func (in *Instance) MaxPathNaive(a Assignment) float64 {
	var max float64
	for i, si := range a {
		if si == Unassigned {
			continue
		}
		di, row := in.cs[i][si], in.ss[si]
		for j := i; j < len(a); j++ {
			sj := a[j]
			if sj == Unassigned {
				continue
			}
			if v := di + row[sj] + in.cs[j][sj]; v > max {
				max = v
			}
		}
	}
	return max
}

// LowerBound returns the paper's theoretical lower bound on D over all
// assignments:
//
//	max over client pairs (c, c') of min over server pairs (s, s') of
//	d(c,s) + d(s,s') + d(s',c')
//
// This is a super-optimum: in the bound a client may use different servers
// for different partners, so it may be unachievable by any single
// assignment. The paper normalizes every algorithm's D by this bound
// ("normalized interactivity"). The result is computed once by
// LowerBoundUncached and cached on the instance; the method is safe for
// concurrent use.
func (in *Instance) LowerBound() float64 {
	in.lbOnce.Do(in.computeLowerBound)
	return in.lowerBound
}

// computeLowerBound fills the cache LowerBound reads.
func (in *Instance) computeLowerBound() {
	in.lowerBound = in.LowerBoundUncached()
}

// LowerBoundUncached recomputes the lower bound from scratch, bypassing
// the per-instance cache; cmd/diabench times it against
// LowerBoundReference, whose value it returns bit for bit. It runs on
// the calling goroutine in two phases, each with an exact prune.
//
// Phase one computes B[i][l] = min over k of d(i,k) + d(k,l). It walks
// server row l in ascending d(l,k), sorted once per call, and stops once
// d(i,nᵢ) + d(l,k) reaches the running minimum, where nᵢ is client i's
// nearest server. Phase two computes the max over pairs i ≤ j of
// min over l of B[i][l] + d(j,l). With R[l] the largest nearest-server
// distance among the clients whose nearest server is l, row i cannot
// exceed Uᵢ = max over l of B[i][l] + R[l]. Rows are visited in
// descending Uᵢ until Uᵢ ≤ the running bound, and each visited row is
// folded by the early-abandoning perfkit.MaxMinPlus.
//
// Why it is exact: min and max do not depend on order, and IEEE addition
// is monotone in each operand (a ≤ a' and b ≤ b' give a+b ≤ a'+b' after
// rounding). In phase one every server k the walk skips has
// d(i,k) ≥ d(i,nᵢ) and d(l,k) at least the d(l,k) that stopped it, so its
// sum is at least the running minimum and cannot lower it. In phase two
// pair (i,j) is at most its l = nⱼ candidate, B[i][nⱼ] + d(j,nⱼ) ≤
// B[i][nⱼ] + R[nⱼ] ≤ Uᵢ, so a skipped row cannot raise the running
// maximum. Every candidate that is computed is the sum
// LowerBoundReference adds (d(l,k) = d(k,l): the server table is
// symmetric, a latency.Matrix invariant), so the result is
// bit-identical. When nothing prunes, the cost is the reference's
// additions plus O(|S|² log |S| + |C| log |C|) of sorting.
func (in *Instance) LowerBoundUncached() float64 {
	nc, ns := len(in.clients), len(in.servers)
	nearest := make([]int, nc)
	perfkit.NearestInto(in.csF, nearest)

	// byDist[l] lists every server k in ascending d(l,k).
	byDist := make([][]int, ns)
	for l, ssRow := range in.ss {
		order := make([]int, ns)
		for k := range order {
			order[k] = k
		}
		slices.SortFunc(order, func(x, y int) int { return cmp.Compare(ssRow[x], ssRow[y]) })
		byDist[l] = order
	}
	b := perfkit.NewFlatMatrix(nc, ns)
	for i, csRow := range in.cs {
		bRow, near := b.Row(i), csRow[nearest[i]]
		for l, order := range byDist {
			ssRow := in.ss[l]
			best := math.Inf(1)
			for _, k := range order {
				if near+ssRow[k] >= best {
					break
				}
				if v := csRow[k] + ssRow[k]; v < best {
					best = v
				}
			}
			bRow[l] = best
		}
	}

	reach := make([]float64, ns) // R[l]; -Inf where no client is nearest to l
	for l := range reach {
		reach[l] = math.Inf(-1)
	}
	for i, k := range nearest {
		if d := in.cs[i][k]; d > reach[k] {
			reach[k] = d
		}
	}
	upper := make([]float64, nc) // Uᵢ
	rows := make([]int, nc)
	for i := range upper {
		u := math.Inf(-1)
		for l, x := range b.Row(i) {
			if v := x + reach[l]; v > u {
				u = v
			}
		}
		upper[i], rows[i] = u, i
	}
	slices.SortFunc(rows, func(x, y int) int { return cmp.Compare(upper[y], upper[x]) })
	var lb float64
	for _, i := range rows {
		if upper[i] <= lb {
			break
		}
		lb = perfkit.MaxMinPlus(b.Row(i), in.csF, i, lb)
	}
	return lb
}

// LowerBoundReference is the retained naive reference for LowerBound:
// the sequential column-walking nested loops the repo shipped before
// the perfkit kernels, with no caching and no pruning. It is the
// differential-test oracle and the "before" side of cmd/diabench's
// lower-bound benchmark.
func (in *Instance) LowerBoundReference() float64 {
	nc, ns := len(in.clients), len(in.servers)
	b := make([][]float64, nc)
	bBacking := make([]float64, nc*ns)
	for i := 0; i < nc; i++ {
		row := bBacking[i*ns : (i+1)*ns : (i+1)*ns]
		csRow := in.cs[i]
		for l := 0; l < ns; l++ {
			best := math.Inf(1)
			for k := 0; k < ns; k++ {
				if v := csRow[k] + in.ss[k][l]; v < best {
					best = v
				}
			}
			row[l] = best
		}
		b[i] = row
	}
	var lb float64
	for i := 0; i < nc; i++ {
		bi := b[i]
		for j := i; j < nc; j++ {
			cj := in.cs[j]
			best := math.Inf(1)
			for l := 0; l < ns; l++ {
				if v := bi[l] + cj[l]; v < best {
					best = v
				}
			}
			if best > lb {
				lb = best
			}
		}
	}
	return lb
}

// NormalizedInteractivity returns D(a) divided by the lower bound — the
// metric plotted throughout the paper's Section V. Values close to 1 are
// close to (super-)optimal.
func (in *Instance) NormalizedInteractivity(a Assignment) float64 {
	lb := in.LowerBound()
	if lb == 0 {
		return math.NaN()
	}
	return in.MaxInteractionPath(a) / lb
}

// Capacities holds the maximum number of clients each server can accept.
// A nil Capacities means uncapacitated.
type Capacities []int

// UniformCapacities returns the same capacity for every one of n servers.
func UniformCapacities(n, capacity int) Capacities {
	caps := make(Capacities, n)
	for i := range caps {
		caps[i] = capacity
	}
	return caps
}

// ValidateCapacities checks that capacities match the instance and that
// total capacity can hold all clients.
func (in *Instance) ValidateCapacities(caps Capacities) error {
	if caps == nil {
		return nil
	}
	if len(caps) != len(in.servers) {
		return fmt.Errorf("%w: %d capacities for %d servers", ErrInvalidInstance, len(caps), len(in.servers))
	}
	total := 0
	for k, c := range caps {
		if c < 0 {
			return fmt.Errorf("%w: negative capacity %d at server %d", ErrInvalidInstance, c, k)
		}
		total += c
	}
	if total < len(in.clients) {
		return fmt.Errorf("%w: total capacity %d < %d clients", ErrInvalidInstance, total, len(in.clients))
	}
	return nil
}

// CheckCapacities verifies that assignment a respects caps. Nil caps
// always passes.
func (in *Instance) CheckCapacities(a Assignment, caps Capacities) error {
	if caps == nil {
		return nil
	}
	if len(caps) != len(in.servers) {
		return fmt.Errorf("%w: %d capacities for %d servers", ErrInvalidInstance, len(caps), len(in.servers))
	}
	loads := in.Loads(a)
	for k, load := range loads {
		if load > caps[k] {
			return fmt.Errorf("%w: server %d has %d clients, capacity %d", ErrInvalidAssignment, k, load, caps[k])
		}
	}
	return nil
}
