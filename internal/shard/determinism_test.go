package shard_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"diacap/internal/core"
	"diacap/internal/dynamic"
	"diacap/internal/latency"
	"diacap/internal/shard"
)

// driveScript applies a fixed seeded op sequence (joins, leaves,
// migrations, one kill/restart pair) to the plane and returns a
// fingerprint of every published observable: epoch, assignment, loads,
// and the raw bits of D and CertifiedD.
func driveScript(t *testing.T, p *shard.Plane, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := p.NumClients()
	ns := p.NumServers()
	activeSet := make([]bool, n)
	dead0 := false
	for op := 0; op < 400; op++ {
		c := rng.Intn(n)
		switch {
		case !activeSet[c]:
			if _, err := p.Join(context.Background(), c); err != nil {
				t.Fatalf("op %d: join(%d): %v", op, c, err)
			}
			activeSet[c] = true
		case rng.Intn(3) == 0:
			if _, err := p.Leave(context.Background(), c); err != nil {
				t.Fatalf("op %d: leave(%d): %v", op, c, err)
			}
			activeSet[c] = false
		default:
			target := -1
			if rng.Intn(2) == 0 {
				target = rng.Intn(ns)
				if target == 0 && dead0 {
					target = 1
				}
			}
			if _, err := p.Migrate(context.Background(), c, target); err != nil {
				t.Fatalf("op %d: migrate(%d,%d): %v", op, c, target, err)
			}
		}
		if op == 200 {
			if _, _, err := p.KillServer(context.Background(), 0); err != nil {
				t.Fatal(err)
			}
			dead0 = true
		}
		if op == 300 {
			if _, err := p.RestartServer(context.Background(), 0); err != nil {
				t.Fatal(err)
			}
			dead0 = false
		}
	}
	s := p.Current()
	fp := binary.BigEndian.AppendUint64(nil, s.Epoch)
	fp = binary.BigEndian.AppendUint64(fp, math.Float64bits(s.D))
	fp = binary.BigEndian.AppendUint64(fp, math.Float64bits(s.CertifiedD))
	for _, a := range s.Assignment {
		fp = binary.BigEndian.AppendUint64(fp, uint64(int64(a)))
	}
	for _, l := range s.Loads {
		fp = binary.BigEndian.AppendUint64(fp, uint64(l))
	}
	return fp
}

// TestShardedDeterminism (regression for the determinism contract): the
// same op script produces a byte-identical published state across
// repeated runs, across GOMAXPROCS settings, and across shard counts
// 1, 4 and 16 — the shards only group clients for reporting.
func TestShardedDeterminism(t *testing.T) {
	servers, clients := testCoords(t, 200, 12, 11)
	var want []byte
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, procs := range []int{1, 8} {
				prev := runtime.GOMAXPROCS(procs)
				for run := 0; run < 2; run++ {
					p, err := shard.New(shard.Options{Shards: shards, Servers: servers, Clients: clients})
					if err != nil {
						runtime.GOMAXPROCS(prev)
						t.Fatal(err)
					}
					fp := driveScript(t, p, 42)
					if want == nil {
						want = fp
					} else if string(fp) != string(want) {
						runtime.GOMAXPROCS(prev)
						t.Fatalf("GOMAXPROCS=%d run %d: fingerprint diverged from the first one-shard run's", procs, run)
					}
				}
				runtime.GOMAXPROCS(prev)
			}
		})
	}
}

// TestShardOneMatchesUnsharded replays the same join/leave/migrate
// script through planes of 1, 4 and 16 shards and through a hand-rolled
// world (one evaluator plus the same strategy), and demands
// bit-identical D and identical assignments at every step. This pins
// that the shards add nothing and lose nothing.
func TestShardOneMatchesUnsharded(t *testing.T) {
	servers, clients := testCoords(t, 150, 9, 13)
	coords := append(append([]latency.Coord(nil), servers...), clients...)
	sidx := make([]int, len(servers))
	cidx := make([]int, len(clients))
	for k := range sidx {
		sidx[k] = k
	}
	for i := range cidx {
		cidx[i] = len(servers) + i
	}
	in, err := core.NewInstanceTrusted(latency.CoordsToMatrix(coords), sidx, cidx)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p, err := shard.New(shard.Options{Shards: shards, Servers: servers, Clients: clients})
			if err != nil {
				t.Fatal(err)
			}
			ev, err := in.NewEvaluator(core.NewAssignment(len(clients)))
			if err != nil {
				t.Fatal(err)
			}
			strat := dynamic.NewGreedyJoin(in)

			rng := rand.New(rand.NewSource(17))
			activeSet := make([]bool, len(clients))
			for op := 0; op < 500; op++ {
				c := rng.Intn(len(clients))
				switch {
				case !activeSet[c]:
					if _, err := p.Join(context.Background(), c); err != nil {
						t.Fatalf("op %d: plane join: %v", op, err)
					}
					ev.Move(c, strat.PlaceJoin(ev, nil, c))
					activeSet[c] = true
				case rng.Intn(3) == 0:
					if _, err := p.Leave(context.Background(), c); err != nil {
						t.Fatalf("op %d: plane leave: %v", op, err)
					}
					ev.Move(c, core.Unassigned)
					activeSet[c] = false
				default:
					target := -1
					if rng.Intn(2) == 0 {
						target = rng.Intn(len(servers))
					}
					if _, err := p.Migrate(context.Background(), c, target); err != nil {
						t.Fatalf("op %d: plane migrate: %v", op, err)
					}
					if target < 0 {
						// The plane's strategic migration is leave-then-place.
						ev.Move(c, core.Unassigned)
						target = strat.PlaceJoin(ev, nil, c)
					}
					ev.Move(c, target)
				}
				s := p.Current()
				bitsEq(t, fmt.Sprintf("op %d: plane vs hand-rolled D", op), s.D, ev.D())
				for i := range clients {
					if s.Assignment[i] != ev.ServerOf(i) {
						t.Fatalf("op %d: client %d assigned to %d by the plane, %d by hand", op, i, s.Assignment[i], ev.ServerOf(i))
					}
				}
			}
		})
	}
}
