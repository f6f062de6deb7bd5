package core

import (
	"cmp"
	"math"
	"slices"
)

// ClientDist is one entry of a server's client list: client C at
// distance D from the server.
type ClientDist struct {
	D float64
	C int
}

// Compare orders list entries by (distance, client index).
func (x ClientDist) Compare(y ClientDist) int {
	if c := cmp.Compare(x.D, y.D); c != 0 {
		return c
	}
	return cmp.Compare(x.C, y.C)
}

// ServerLists returns the paper's per-server client lists Ls (Fig. 6):
// lists[k] holds every client in ascending (d(i,k), i) order, each with
// its distance to server k. They are built on first use, once per
// instance, and shared by every later call, so callers must not mutate
// them; the method is safe for concurrent use. Restrict's sub-instances
// build their own.
func (in *Instance) ServerLists() [][]ClientDist {
	in.listsOnce.Do(in.buildServerLists)
	return in.lists
}

// buildServerLists fills the lists ServerLists returns. Each server's
// distances are read once, into a server-major row, and ordered by
// distanceOrder.
func (in *Instance) buildServerLists() {
	nc, ns := len(in.clients), len(in.servers)
	lists := make([][]ClientDist, ns)
	all := make([]ClientDist, ns*nc)
	row := make([]float64, nc)
	counts := make([]int, nc+1)
	for k := range lists {
		for i, csRow := range in.cs {
			row[i] = csRow[k]
		}
		lists[k] = all[k*nc : (k+1)*nc : (k+1)*nc]
		distanceOrder(row, lists[k], counts)
	}
	in.lists = lists
}

// distanceOrder fills list with the clients 0..len(dist)-1 ordered by
// (dist[c], c) ascending, the order a comparison sort on that key
// yields, in distribution order: with lo and hi the extreme distances,
// client c drops, in index order, into bucket ⌊(dist[c] − lo)·s⌋ for
// s = (|C|−1)/(hi − lo), and each bucket is sorted on its own. IEEE
// subtraction, and multiplication by a positive constant, round
// monotonically, so a nearer client never lands in a later bucket and
// the concatenated buckets are the one (distance, index) order. A
// spread of zero, a spread that is not finite (min and max propagate
// NaN) and a spread so small that s overflows put every client in
// bucket 0 without evaluating the map, which leaves a plain comparison
// sort. counts is a work buffer of length len(dist)+1.
func distanceOrder(dist []float64, list []ClientDist, counts []int) {
	n := len(dist)
	lo, hi := dist[0], dist[0]
	for _, d := range dist {
		lo, hi = min(lo, d), max(hi, d)
	}
	spread := hi - lo
	scale := float64(n-1) / spread
	if !(spread > 0) || math.IsInf(spread, 1) || math.IsInf(scale, 1) {
		for c, d := range dist {
			list[c] = ClientDist{d, c}
		}
		slices.SortFunc(list, ClientDist.Compare)
		return
	}
	bucket := func(d float64) int { return min(int((d-lo)*scale), n-1) }
	clear(counts)
	for _, d := range dist {
		counts[bucket(d)+1]++
	}
	for b := 1; b < len(counts); b++ {
		counts[b] += counts[b-1]
	}
	for c, d := range dist {
		b := bucket(d)
		list[counts[b]] = ClientDist{d, c}
		counts[b]++
	}
	// counts[b] is now the end of bucket b, and the start of b+1.
	start := 0
	for b := 0; b < n; b++ {
		if end := counts[b]; end-start > 1 {
			slices.SortFunc(list[start:end], ClientDist.Compare)
		}
		start = counts[b]
	}
}
