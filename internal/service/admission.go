package service

// Admission control for the assignment endpoints. When the service
// fronts a live cluster (Options.Live), a churn event (failure storm,
// reconnect stampede, partition) makes fresh assignments both expensive
// and short-lived, so the service pushes back until the cluster
// stabilizes. The controller scores cluster health from the always-on
// resilience telemetry (live.HealthSnapshot) and walks a two-state
// machine:
//
//	accept → every request computes its own answer
//	shed   → 429 + Retry-After, before the body is read
//
// A request is answered for its own body or refused; it is never
// answered with another request's result. Leaving shed requires the
// score to drop shedExitMargin below the shed threshold, so a score
// oscillating around the threshold cannot flap the service between
// modes — the same hysteresis idea the dynamic layer applies to
// reassignment.

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"diacap/internal/live"
	"diacap/internal/obs"
)

// AdmissionState is the controller's current mode; its value is what
// the diacap_admission_state gauge reads. Shed is 2, the value the gauge
// has always read for it, so an alert on == 2 keeps firing.
type AdmissionState int

const (
	AdmissionAccept AdmissionState = 0
	AdmissionShed   AdmissionState = 2
)

func (s AdmissionState) String() string {
	switch s {
	case AdmissionAccept:
		return "accept"
	case AdmissionShed:
		return "shed"
	}
	return fmt.Sprintf("AdmissionState(%d)", int(s))
}

const (
	// shedExitMargin is the hysteresis band: shedding stops only once
	// the score drops this far below the shed threshold.
	shedExitMargin = 0.05
	// retryAfter is the backoff advertised on 429 responses.
	retryAfter = 2 * time.Second
)

// healthScore maps a telemetry delta onto [0, 1]. Components and their
// saturation scales, weights summing to 1:
//
//	0.45  dead-server fraction (instantaneous)
//	0.20  failovers per second, saturating at 0.5/s
//	0.20  reconnect dials per client per second, saturating at 1
//	0.15  mean lag spread per delivery, saturating at 50 virtual ms
//
// The dead fraction alone cannot shed at the 0.6 threshold: a stably
// degraded cluster that still meets its δ keeps serving, and only
// active churn (failovers, reconnect storms, lag blowout) pushes the
// service into load shedding.
func healthScore(prev, cur live.HealthSnapshot, elapsedSec float64) float64 {
	parts := healthParts(prev, cur, elapsedSec)
	return saturate(parts[0] + parts[1] + parts[2] + parts[3])
}

// healthParts returns the four weighted score contributions, indexed in
// the order of the healthComponents label set (dead_servers,
// failover_rate, reconnect_rate, lag_spread). healthScore sums them in
// that order, so the refactor is arithmetically identical to the
// previous single-pass accumulation.
func healthParts(prev, cur live.HealthSnapshot, elapsedSec float64) [4]float64 {
	if elapsedSec <= 0 {
		elapsedSec = 1
	}
	var parts [4]float64
	if cur.Servers > 0 {
		parts[0] = 0.45 * float64(cur.DeadServers) / float64(cur.Servers)
	}
	failRate := float64(cur.Failovers-prev.Failovers) / elapsedSec
	parts[1] = 0.20 * saturate(failRate/0.5)
	if cur.Clients > 0 {
		reconRate := float64(cur.ReconnectAttempts-prev.ReconnectAttempts) / elapsedSec / float64(cur.Clients)
		parts[2] = 0.20 * saturate(reconRate)
	}
	if dd := cur.Deliveries - prev.Deliveries; dd > 0 {
		meanSpread := (cur.LagSpreadSum - prev.LagSpreadSum) / float64(dd)
		parts[3] = 0.15 * saturate(meanSpread/50)
	}
	return parts
}

// dominantComponent names the largest score contribution (first wins on
// exact ties, matching the healthComponents order), or "none" when the
// score is zero — the answer to "why is the service shedding".
func dominantComponent(parts [4]float64) string {
	best, bestV := 4, 0.0
	for i, v := range parts {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return healthComponents[best]
}

func saturate(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// nextState advances the admission state machine for one score
// reading: shed is entered at shedScore and left below shedScore −
// shedExitMargin.
func (a *admission) nextState(state AdmissionState, score float64) AdmissionState {
	enter := a.shedScore
	if state == AdmissionShed {
		enter -= shedExitMargin
	}
	if score >= enter {
		return AdmissionShed
	}
	return AdmissionAccept
}

// admission is the runtime controller instance.
type admission struct {
	health LiveStatus
	// window is the minimum wall-clock spacing between telemetry
	// refreshes; successive snapshots are diffed into rates over it.
	window time.Duration
	// shedScore is the health score in [0, 1] at which shedding starts.
	shedScore float64

	mu       sync.Mutex
	haveBase bool
	base     live.HealthSnapshot // snapshot the current rates diff against
	baseAt   time.Time
	score    float64
	state    AdmissionState
	// dominant names the health component contributing most to the
	// latest score (see dominantComponent).
	dominant string
}

func newAdmission(health LiveStatus) *admission {
	return &admission{health: health, window: time.Second, shedScore: 0.6, dominant: "none"}
}

// refresh re-scores the cluster at most once per window and returns the
// current state, score, the state before this reading (prev != state
// marks a transition, attributable to the calling request), and the
// dominant score component.
func (a *admission) refresh() (state AdmissionState, score float64, prev AdmissionState, dominant string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := time.Now()
	if a.haveBase && now.Sub(a.baseAt) < a.window {
		return a.state, a.score, a.state, a.dominant
	}
	snap := a.health.HealthSnapshot()
	var parts [4]float64
	if !a.haveBase {
		// First reading: no rate base yet, only the instantaneous
		// components count.
		a.haveBase = true
		parts = healthParts(snap, snap, 1)
	} else {
		parts = healthParts(a.base, snap, now.Sub(a.baseAt).Seconds())
	}
	a.score = saturate(parts[0] + parts[1] + parts[2] + parts[3])
	a.dominant = dominantComponent(parts)
	prev = a.state
	a.state = a.nextState(a.state, a.score)
	a.base, a.baseAt = snap, now
	return a.state, a.score, prev, a.dominant
}

// admit gates one assignment request before its body is read: a method
// other than POST gets 405, and a request the controller sheds gets 429
// + Retry-After. It returns true when it answered the request, which
// the handler must then neither read nor compute.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, endpoint string) bool {
	if r.Method != http.MethodPost {
		s.fail(w, r, &httpError{status: http.StatusMethodNotAllowed, msg: "POST required"})
		return true
	}
	a := s.admission
	if a == nil {
		return false
	}
	_, asp := obs.Child(r.Context(), "service.admission")
	state, score, prev, dominant := a.refresh()
	asp.SetAttr(obs.Str("state", state.String()), obs.F64("score", score))
	asp.End()
	if state != prev {
		// Journal the transition under the trace that triggered the
		// re-score, then dump on shed entry: the dump must carry the
		// trace id of the request that tipped the controller over.
		trace := obs.SpanFromContext(r.Context()).TraceID()
		s.jAdmission.Record(state.String(), trace,
			obs.Str("from", prev.String()),
			obs.F64("score", score),
			obs.Str("dominant", dominant))
		if state == AdmissionShed {
			s.opts.Flight.Dump("admission-shed")
		}
	}
	s.countAdmission(state, score)
	if state != AdmissionShed {
		return false
	}
	if reg := s.opts.Metrics; reg != nil {
		reg.Counter(nAdmShedComp, hAdmShedComp, obs.L("component", dominant)).Inc()
	}
	s.log.Warn("admission: shedding assignment load",
		"endpoint", endpoint, "score", score, "dominant", dominant)
	w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
	writeJSON(w, http.StatusTooManyRequests, map[string]string{
		"error": fmt.Sprintf("cluster health score %.2f: assignment load shed, retry later", score),
	})
	return true
}
