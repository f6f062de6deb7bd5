package service

// Request tracing and the request-level flight journal. The request
// wrapper (Server.ServeHTTP) opens, or adopts via W3C traceparent, the
// root span for each request a tracer samples, exposes the trace id to
// the caller in the X-Diacap-Trace response header before the handler
// runs, and journals every finished request, panicking and aborted ones
// included, into the flight recorder. Lower layers (admission, the
// shard plane, the evaluator hooks) attach child spans and events
// through the request context, so a traced /v1/shard/assign resolves to
// a span tree attributing latency per layer at /debug/trace?trace=<id>.

// TraceHeader carries the request's trace id on every traced response,
// resolvable at /debug/trace?trace=<id>.
const TraceHeader = "X-Diacap-Trace"

// Flight journal names, package-level consts per the preregister
// discipline (dialint checks Journal call sites).
const (
	// JournalRequests records every finished HTTP request (kind =
	// normalized endpoint) with status, duration, and trace id.
	JournalRequests = "requests"
	// JournalAdmission records admission state transitions (kind = the
	// state entered) with the score and dominant health component.
	JournalAdmission = "admission"
)
