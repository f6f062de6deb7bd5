package service

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"diacap/internal/live"
	"diacap/internal/loadgen"
)

// flapHealth cycles through its snapshots forever, so the admission
// controller keeps re-scoring a quiet→storm→quiet oscillation and the
// service flaps between accept and shed for as long as the test runs.
type flapHealth struct {
	stubLive
	mu    sync.Mutex
	snaps []live.HealthSnapshot
	i     int
}

func (h *flapHealth) HealthSnapshot() live.HealthSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.snaps[h.i%len(h.snaps)]
	h.i++
	return s
}

// TestResolveStormAtomicity is the regression test for the mid-batch
// shed bug class: it races a loadgen overload run (real TCP, keep-alive
// connections, concurrent batches) against both an admission controller
// flapping in and out of shed and a KillServer/RestartServer storm on
// the shard plane. The load generator's strict classifier is the
// assertion: every response must be a complete 200 batch (all
// coordinates answered) or a whole-request 429 with Retry-After. A
// batch truncated by a shed taking effect mid-request, a 429 missing
// Retry-After, or a response straddling two snapshots' shapes would all
// surface as non-429 errors and fail the run.
func TestResolveStormAtomicity(t *testing.T) {
	quiet := live.HealthSnapshot{Servers: 4, Clients: 10}
	storm := live.HealthSnapshot{
		Servers: 4, DeadServers: 2, Clients: 10,
		Failovers: 50, ReconnectAttempts: 500,
		Deliveries: 100, LagSpreadSum: 100 * 1000,
	}
	s, p := resolveServer(t, Options{Live: &flapHealth{snaps: []live.HealthSnapshot{quiet, storm}}})
	s.admission.window = 500 * time.Microsecond
	srv := httptest.NewServer(s)
	defer srv.Close()

	// The control-plane storm: kill and restart every server but one in
	// a tight loop. Each op republishes the snapshot and bumps the
	// epoch, so in-flight batches keep racing snapshot swaps. The plane
	// is uncapacitated and server 0 never dies, so every write must
	// succeed: the storm stops at the first error and fails the test.
	stormCtx, stopStorm := context.WithCancel(context.Background())
	var stormDone sync.WaitGroup
	var stormErr error
	stormDone.Add(1)
	go func() {
		defer stormDone.Done()
		for k := 1; stormCtx.Err() == nil && stormErr == nil; k = 1 + k%3 {
			if _, _, err := p.KillServer(stormCtx, k); err != nil {
				stormErr = fmt.Errorf("kill of server %d: %w", k, err)
			} else if _, err := p.RestartServer(stormCtx, k); err != nil {
				stormErr = fmt.Errorf("restart of server %d: %w", k, err)
			}
		}
	}()

	runner, err := loadgen.New(loadgen.Config{
		URL:   srv.URL,
		Batch: 64,
		Seed:  3,
		Phases: []loadgen.Phase{
			{Name: "overload", Duration: 1500 * time.Millisecond, Workers: 8},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(context.Background())
	stopStorm()
	stormDone.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if stormErr != nil {
		t.Fatalf("control-plane storm: %v", stormErr)
	}

	ps := res.Phases[0]
	t.Logf("storm run: %d ok, %d shed, %d errors over %v", ps.OK, ps.Shed, ps.Errors, ps.Duration)
	if ps.Errors != 0 {
		t.Fatalf("%d protocol violations under storm (first: %s)", ps.Errors, ps.FirstError)
	}
	if ps.OK == 0 {
		t.Fatal("no request succeeded; the storm run exercised nothing")
	}
	if ps.Shed == 0 {
		t.Fatal("no request was shed; the flapping admission controller never fired")
	}
	if ps.OK+ps.Shed != ps.Requests {
		t.Fatalf("accounting broken: %+v", ps)
	}
}
