package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"diacap/internal/core"
	"diacap/internal/dynamic"
	"diacap/internal/shard"
)

// TestScenarioErrorWording pins that a capacity exhaustion is worded by
// what ran out of room — a refused join, a kill the plane committed
// with detached clients, an evacuee the simulator could not seat — and
// that the wrapped text, which CI greps for "no server has remaining
// capacity", survives.
func TestScenarioErrorWording(t *testing.T) {
	ctx := context.Background()
	sc, err := dynamic.BuildScenario("storm", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Storm's first kill under 17 seats per server has no room for
	// every evacuee, on either target.
	caps := core.UniformCapacities(len(sc.Pop.Servers), 17)
	_, simErr := dynamic.SimulateScenario(sc, caps, dynamic.NewNearestJoin(nil))
	p, err := shard.NewFromPopulation(sc.Pop, shard.Options{Capacities: caps, Strategy: dynamic.NewNearestJoin(nil)})
	if err != nil {
		t.Fatal(err)
	}
	_, killErr := p.Replay(ctx, sc)
	// One seat per server: the join after the last seat is refused.
	full, err := shard.NewFromPopulation(sc.Pop, shard.Options{Capacities: core.UniformCapacities(len(sc.Pop.Servers), 1)})
	if err != nil {
		t.Fatal(err)
	}
	var joinErr error
	for c := 0; joinErr == nil && c < full.NumClients(); c++ {
		_, joinErr = full.Join(ctx, c)
	}
	for _, tc := range []struct {
		what, want string
		err        error
	}{
		{"a refused join", "the join was refused", joinErr},
		{"a kill that detached clients", "the kill of server 0 committed and detached", killErr},
		{"an evacuation the simulator could not finish", "a killed server's client found no seat", simErr},
	} {
		if !errors.Is(tc.err, dynamic.ErrCapacityExhausted) {
			t.Fatalf("%s: got %v, want a capacity exhaustion", tc.what, tc.err)
		}
		got := scenarioError(tc.err)
		if msg := got.Error(); !strings.Contains(msg, tc.want) || !strings.Contains(msg, "no server has remaining capacity") ||
			(tc.want != "the join was refused" && strings.Contains(msg, "join was refused")) {
			t.Fatalf("%s: %q, want it worded %q", tc.what, msg, tc.want)
		}
		if !errors.Is(got, tc.err) {
			t.Fatalf("%s: the worded error no longer wraps %v", tc.what, tc.err)
		}
	}
	other := errors.New("some other failure")
	if got := scenarioError(other); got != other {
		t.Fatalf("a non-capacity error came back as %v", got)
	}
}
