package gateway

import (
	"sort"

	"agcm/internal/metrics"
)

// gatewayMetrics declares agcmgw's metric families, in /metrics order.  The
// fields are exported because the chaos suites read them through
// Gateway.Metrics.
type gatewayMetrics struct {
	reg *metrics.Registry
	// Requests by client-edge outcome: ok, degraded, rejected, shed, error.
	Requests *metrics.Counter
	// BackendResponses counts responses fully received from each backend by
	// status code — including hedge losers whose responses were read and
	// discarded, so these reconcile against the backends' own counters.
	BackendResponses *metrics.Counter
	// BackendErrors counts transport-level failures (dial, reset, timeout).
	BackendErrors *metrics.Counter
	// BackendCanceled counts attempts the gateway abandoned before reading a
	// response (hedge losers, client disconnects).  The backend may or may
	// not have counted these — reconciliation treats them as slack.
	BackendCanceled *metrics.Counter
	// BreakerTransitions counts state changes per backend, labeled
	// "from->to".
	BreakerTransitions *metrics.Counter
	Retries            *metrics.Counter
	RetryExhausted     *metrics.Counter
	Hedges             *metrics.Counter // launched, won, lost
	Probes             *metrics.Counter // ok, fail
	// ClassRequests counts validated client requests by SLO class; it
	// reconciles against the backends' agcmd_class_requests_total the same
	// way the edge ledger does (hedge losers are extra backend-side counts).
	ClassRequests *metrics.Counter
}

// newGatewayMetrics registers the families; the per-backend gauges read the
// given backends (emitted sorted by ID) and budgetTokens at scrape time.
func newGatewayMetrics(backends []*backend, budgetTokens func() float64) *gatewayMetrics {
	sorted := append([]*backend(nil), backends...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].id < sorted[j].id })
	perBackend := func(read func(*backend) int64) func(emit func(string, int64)) {
		return func(emit func(string, int64)) {
			for _, b := range sorted {
				emit(b.id, read(b))
			}
		}
	}
	r := metrics.New()
	m := &gatewayMetrics{reg: r}
	m.Requests = r.Counter("agcmgw_requests_total", "Client requests by outcome.", "result")
	m.BackendResponses = r.Counter("agcmgw_backend_responses_total",
		"Responses fully received from each backend by status code (hedge losers included).", "backend", "code")
	m.BackendErrors = r.Counter("agcmgw_backend_transport_errors_total",
		"Attempts that failed at the transport level per backend.", "backend")
	m.BackendCanceled = r.Counter("agcmgw_backend_canceled_total",
		"Attempts abandoned before a response was read per backend.", "backend")
	m.BreakerTransitions = r.Counter("agcmgw_breaker_transitions_total",
		"Circuit-breaker state changes per backend.", "backend", "transition")
	m.Retries = r.Counter("agcmgw_retries_total", "Attempt retries (failovers and backend-saturation retries).")
	m.RetryExhausted = r.Counter("agcmgw_retry_budget_exhausted_total",
		"Retries refused because the token-bucket budget was dry.")
	m.Hedges = r.Counter("agcmgw_hedges_total", "Hedged attempts by outcome.", "result")
	m.Probes = r.Counter("agcmgw_probes_total", "Active health probes by verdict.", "verdict")
	r.IntVecFunc("agcmgw_backend_state", "Circuit-breaker state per backend (0 closed, 1 open, 2 half-open).",
		"gauge", "backend", perBackend(func(b *backend) int64 { return int64(b.breaker.State()) }))
	r.IntVecFunc("agcmgw_backend_ready", "Latest /readyz probe verdict per backend.",
		"gauge", "backend", perBackend(func(b *backend) int64 {
			if b.ready.Load() {
				return 1
			}
			return 0
		}))
	r.IntVecFunc("agcmgw_backend_inflight", "Requests currently in flight per backend.",
		"gauge", "backend", perBackend(func(b *backend) int64 { return b.inflight.Load() }))
	r.FloatFunc("agcmgw_retry_budget_tokens", "Retry-budget tokens currently available.", budgetTokens)
	// Appended after the historical layout so pre-SLO scrapes keep their
	// exact byte prefix.
	m.ClassRequests = r.Counter("agcmgw_class_requests_total", "Validated client requests by SLO class.", "class")
	return m
}
