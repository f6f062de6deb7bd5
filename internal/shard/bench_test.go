package shard_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"diacap/internal/core"
	"diacap/internal/obs"
	"diacap/internal/shard"
)

// BenchmarkPlaneWrite times one plane write at perfbench's serving
// shape: 32 servers and 4800 clients from latency.GenerateCoords
// (seed 1), GreedyJoin, a metrics registry and a flight recorder, and
// three quarters of the clients joined in a seeded order, as churn
// starts. Each write runs at 1, 4 and 16 shards (perfbench serves 4):
//
//   - join: an inactive client joins;
//   - leave: an active client leaves;
//   - migrate: the strategy re-places an active client (Migrate(c, -1));
//   - noop: an active client migrates to its own server, which changes
//     nothing but still publishes an epoch.
//
// join and leave undo each window of 256 writes with the timer stopped,
// so the plane stays near its starting state. One plane per shard count
// is built on first use and shared by the four writes.
func BenchmarkPlaneWrite(b *testing.B) {
	servers, clients := testCoords(b, 4800, 32, 1)
	order := rand.New(rand.NewSource(1)).Perm(len(clients))
	planes := map[int]*shard.Plane{}
	plane := func(b *testing.B, shards int) *shard.Plane {
		if p := planes[shards]; p != nil {
			return p
		}
		p, err := shard.New(shard.Options{Shards: shards, Servers: servers, Clients: clients,
			Metrics: obs.NewRegistry(), Flight: obs.NewRecorder(0)})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range order[:len(order)*3/4] {
			if _, err := p.Join(context.Background(), c); err != nil {
				b.Fatal(err)
			}
		}
		planes[shards] = p
		return p
	}
	for _, op := range []string{"join", "leave", "migrate", "noop"} {
		b.Run(op, func(b *testing.B) {
			for _, shards := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
					benchWrite(b, plane(b, shards), op)
				})
			}
		})
	}
}

// benchWrite runs b.N writes of kind op on p.
func benchWrite(b *testing.B, p *shard.Plane, op string) {
	ctx := context.Background()
	must := func(_ shard.OpResult, err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	// active and inactive list the clients by their state at the start.
	var active, inactive []int
	for c, s := range p.Current().Assignment {
		if s == core.Unassigned {
			inactive = append(inactive, c)
		} else {
			active = append(active, c)
		}
	}
	const window = 256
	// undo reverses the writes of one window with the timer stopped.
	undo := func(done []int, reverse func(context.Context, int) (shard.OpResult, error)) {
		b.StopTimer()
		for _, c := range done {
			must(reverse(ctx, c))
		}
		b.StartTimer()
	}
	b.ReportAllocs()
	b.ResetTimer()
	switch op {
	case "join", "leave":
		write, reverse, pool := p.Join, p.Leave, inactive
		if op == "leave" {
			write, reverse, pool = p.Leave, p.Join, active
		}
		for i := 0; i < b.N; i += window {
			done := pool[:min(window, b.N-i)]
			for _, c := range done {
				must(write(ctx, c))
			}
			undo(done, reverse)
		}
	case "migrate":
		for i := 0; i < b.N; i++ {
			must(p.Migrate(ctx, active[i%len(active)], -1))
		}
	case "noop":
		a := p.Current().Assignment
		for i := 0; i < b.N; i++ {
			c := active[i%len(active)]
			must(p.Migrate(ctx, c, a[c]))
		}
	}
}
