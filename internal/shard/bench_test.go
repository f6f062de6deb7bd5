package shard_test

import (
	"context"
	"math/rand"
	"testing"

	"diacap/internal/core"
	"diacap/internal/obs"
	"diacap/internal/shard"
)

// servingPlane builds a plane at perfbench's serving shape: 32
// servers and 4800 clients from latency.GenerateCoords (seed 1),
// GreedyJoin, a metrics registry and a flight recorder, and three
// quarters of the clients joined in a seeded order, as churn starts.
func servingPlane(tb testing.TB) *shard.Plane {
	servers, clients := testCoords(tb, 4800, 32, 1)
	p, err := shard.New(shard.Options{Servers: servers, Clients: clients,
		Metrics: obs.NewRegistry(), Flight: obs.NewRecorder(0)})
	if err != nil {
		tb.Fatal(err)
	}
	order := rand.New(rand.NewSource(1)).Perm(len(clients))
	for _, c := range order[:len(order)*3/4] {
		if _, err := p.Join(context.Background(), c); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// BenchmarkPlaneWrite times one plane write on a servingPlane:
//
//   - join: an inactive client joins;
//   - leave: an active client leaves;
//   - migrate: the strategy re-places an active client (Migrate(c, -1));
//   - noop: an active client migrates to its own server, which changes
//     nothing but still publishes an epoch.
//
// join and leave undo each window of 256 writes with the timer stopped,
// so the plane stays near its starting state. One plane is built on
// first use and shared by the four writes.
func BenchmarkPlaneWrite(b *testing.B) {
	var p *shard.Plane
	for _, op := range []string{"join", "leave", "migrate", "noop"} {
		b.Run(op, func(b *testing.B) {
			if p == nil {
				p = servingPlane(b)
			}
			benchWrite(b, p, op)
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
