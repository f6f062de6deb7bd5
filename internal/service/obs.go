package service

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"diacap/internal/assign"
	"diacap/internal/live"
	"diacap/internal/obs"
)

// LiveStatus is the view of a live server cluster the service fronts.
// *live.Cluster satisfies it; /healthz reports the dead-server count so
// an orchestrator probing the HTTP plane sees cluster degradation, and
// admission control scores the cluster's health.
type LiveStatus interface {
	// NumServers is the configured cluster size.
	NumServers() int
	// DeadServers lists the indices of servers that have failed.
	DeadServers() []int
	// HealthSnapshot is the resilience telemetry admission scores.
	HealthSnapshot() live.HealthSnapshot
}

// endpoints is the closed label set for per-endpoint metrics; anything
// else (bad paths, probes) is folded into "other" so scrape cardinality
// stays bounded no matter what clients request.
var endpoints = []string{
	"/healthz",
	"/v1/algorithms",
	"/v1/assign",
	"/v1/assign-coords",
	"/v1/assign-one",
	"/v1/assign-batch",
	"/v1/placement",
	"/v1/shard/assign",
	"/v1/shard/snapshot",
	"/metrics",
	"/debug/vars",
	"/debug/trace",
	"/debug/flight",
}

func normalizeEndpoint(path string) string {
	for _, e := range endpoints {
		if path == e {
			return e
		}
	}
	if strings.HasPrefix(path, "/debug/pprof/") {
		return "/debug/pprof"
	}
	return "other"
}

// statusWriter captures the response code for the request wrapper
// (Server.ServeHTTP). It deliberately does not forward Flush/Hijack:
// every endpoint writes a small JSON or text body in one shot.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Metric names and help strings shared between the request wrapper and
// PreregisterMetrics, so the exposed schema is identical either way.
const (
	nHTTPRequests   = "diacap_http_requests_total"
	hHTTPRequests   = "HTTP requests served, by endpoint and status code."
	nHTTPSeconds    = "diacap_http_request_seconds"
	hHTTPSeconds    = "HTTP request handling time in seconds."
	nHTTPErrors     = "diacap_http_errors_total"
	hHTTPErrors     = "HTTP requests answered with a 4xx/5xx status."
	nHTTPInflight   = "diacap_http_inflight_requests"
	hHTTPInflight   = "Requests currently being handled."
	nAssignD        = "diacap_assign_d_ms"
	hAssignD        = "Maximum interaction-path length D (= minimum feasible lag) of the last assignment, in ms."
	nAssignSec      = "diacap_assign_seconds"
	hAssignSec      = "Assignment computation time in seconds."
	nAdmDecisions   = "diacap_admission_decisions_total"
	hAdmDecisions   = "Admission decisions on the assignment endpoints, by outcome."
	nAdmScore       = "diacap_admission_health_score"
	hAdmScore       = "Latest cluster health score in [0,1] driving admission control."
	nAdmState       = "diacap_admission_state"
	hAdmState       = "Admission state: 0 accept, 2 shed (it never reads 1)."
	nAdmShedComp    = "diacap_admission_shed_component_total"
	hAdmShedComp    = "Shed (429) responses, by the dominant health-score component that drove the score."
	nResolveClients = "diacap_resolve_clients_total"
	hResolveClients = "Clients resolved by the serving endpoints, by endpoint (batch requests add their batch size)."
)

// admissionDecisions is the closed label set of admission outcomes.
var admissionDecisions = []string{AdmissionAccept.String(), AdmissionShed.String()}

// healthComponents is the closed label set of health-score components
// (see healthParts); "none" covers an all-zero score.
var healthComponents = []string{"dead_servers", "failover_rate", "reconnect_rate", "lag_spread", "none"}

// PreregisterMetrics creates the service's metric families (zero-valued)
// ahead of any traffic, so the first scrape already exposes the full
// schema: request counters and latency histograms per endpoint, and the
// assignment-D gauge per paper algorithm. Idempotent.
func PreregisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge(nHTTPInflight, hHTTPInflight)
	for _, ep := range endpoints {
		reg.Counter(nHTTPRequests, hHTTPRequests,
			obs.L("endpoint", ep), obs.L("code", "200"))
		reg.Histogram(nHTTPSeconds, hHTTPSeconds,
			obs.SecondsBuckets, obs.L("endpoint", ep))
		reg.Counter(nHTTPErrors, hHTTPErrors, obs.L("endpoint", ep))
	}
	for _, alg := range assign.All() {
		reg.Gauge(nAssignD, hAssignD, obs.L("algorithm", alg.Name()))
		reg.Histogram(nAssignSec, hAssignSec,
			obs.SecondsBuckets, obs.L("algorithm", alg.Name()))
	}
	for _, d := range admissionDecisions {
		reg.Counter(nAdmDecisions, hAdmDecisions, obs.L("decision", d))
	}
	for _, c := range healthComponents {
		reg.Counter(nAdmShedComp, hAdmShedComp, obs.L("component", c))
	}
	for _, ep := range []string{"/v1/assign-one", "/v1/assign-batch"} {
		reg.Counter(nResolveClients, hResolveClients, obs.L("endpoint", ep))
	}
	reg.Gauge(nAdmScore, hAdmScore)
	reg.Gauge(nAdmState, hAdmState)
}

// countAdmission publishes one admission decision (the state it put
// the request in) plus the score it was made under.
func (s *Server) countAdmission(state AdmissionState, score float64) {
	reg := s.opts.Metrics
	if reg == nil {
		return
	}
	reg.Counter(nAdmDecisions, hAdmDecisions, obs.L("decision", state.String())).Inc()
	reg.Gauge(nAdmScore, hAdmScore).Set(score)
	reg.Gauge(nAdmState, hAdmState).Set(float64(state))
}

// record accounts for one finished request under its final status code:
// the request, latency and error metrics, the root span's attributes and
// end, and the requests journal entry.
func (s *Server) record(r *http.Request, ep string, sp *obs.Span, code int, d time.Duration) {
	trace := sp.TraceID()
	if reg := s.opts.Metrics; reg != nil {
		reg.Counter(nHTTPRequests, hHTTPRequests,
			obs.L("endpoint", ep), obs.L("code", strconv.Itoa(code))).Inc()
		// Exemplar: the latest trace id that landed in each latency
		// bucket, so a histogram outlier links to its span tree.
		reg.Histogram(nHTTPSeconds, hHTTPSeconds,
			obs.SecondsBuckets, obs.L("endpoint", ep)).
			ObserveExemplar(d.Seconds(), trace)
		if code >= 400 {
			reg.Counter(nHTTPErrors, hHTTPErrors,
				obs.L("endpoint", ep)).Inc()
		}
	}
	if sp != nil {
		sp.SetAttr(obs.Str("endpoint", ep), obs.Str("method", r.Method), obs.Int("status", code))
		sp.End()
	}
	s.jRequests.Record(ep, trace,
		obs.Int("status", code),
		obs.F64("durationMs", durationMs(d)))
}

// mountDebug adds /metrics, /debug/vars and (opt-in) /debug/pprof to the
// mux. pprof is off by default: profile endpoints reveal internals and
// cost CPU, so exposure is an explicit operator decision.
func (s *Server) mountDebug() {
	if s.opts.Metrics != nil {
		s.mux.Handle("/metrics", s.opts.Metrics.Handler())
		s.mux.Handle("/debug/vars", s.opts.Metrics.VarsHandler())
	}
	if s.opts.Tracer != nil {
		s.mux.Handle("/debug/trace", s.opts.Tracer.Handler())
	}
	// The recorder always exists (fill creates one), so the flight dump
	// is always readable.
	s.mux.Handle("/debug/flight", s.opts.Flight.Handler())
	if s.opts.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// fail answers err as JSON and logs it with the request context: 4xx at
// Warn (client mistakes), everything else at Error. Extra attrs carry
// handler-specific context (node count, algorithm, duration).
func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error, attrs ...any) {
	status := errStatus(err)
	logAttrs := append([]any{
		"endpoint", r.URL.Path,
		"method", r.Method,
		"status", status,
		"error", err.Error(),
	}, attrs...)
	if status >= 400 && status < 500 {
		s.log.Warn("request failed", logAttrs...)
	} else {
		s.log.Error("request failed", logAttrs...)
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// recordAssignD publishes the freshly computed D — the minimum feasible
// lag δ of the paper — per algorithm, plus a compute-time histogram.
func (s *Server) recordAssignD(algorithm string, d float64, elapsed time.Duration) {
	if s.opts.Metrics == nil {
		return
	}
	s.opts.Metrics.Gauge(nAssignD, hAssignD,
		obs.L("algorithm", algorithm)).Set(d)
	s.opts.Metrics.Histogram(nAssignSec, hAssignSec,
		obs.SecondsBuckets, obs.L("algorithm", algorithm)).
		Observe(elapsed.Seconds())
}

// durationMs renders a duration for structured logs in the unit the rest
// of the system speaks (latencies and D are all milliseconds).
func durationMs(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
