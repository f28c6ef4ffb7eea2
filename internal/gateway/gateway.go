// Package gateway implements agcmgw, the fault-tolerant serving gateway
// that fronts N agcmd backends and stays correct while they misbehave.
//
// Routing: a pluggable policy (round-robin, least-inflight, or rendezvous
// key-affinity on the job's ConfigKey) ranks every backend per request; the
// gateway walks the ranking skipping members that are not ready (active
// /readyz probing), are inside a Retry-After cooldown, or whose per-backend
// three-state circuit breaker (closed → open → half-open with probe-gated
// recovery) is open — so spillover under failure is the same mechanism as
// primary routing.
//
// Resilience: failed attempts are retried on the next-ranked backend with
// exponential backoff and deterministic-seeded jitter, governed by a global
// token-bucket retry budget so retries cannot amplify an outage.  Retries
// are safe by construction: agcmd runs are bit-deterministic and
// content-addressed, so replaying a request can only produce the same
// bytes.  Interactive requests may be hedged — a second shard raced after
// a latency-percentile delay, loser canceled via context.  When no backend
// can take a key, the gateway degrades gracefully: it serves the cached
// result from any backend's /v1/cache/{key} address before shedding.
//
// Observability: /metrics (per-backend breaker state, responses by code,
// retries, hedges, probes — emitted in sorted order) and a structured
// JSON-lines event log (breaker transitions, ejections, readmissions,
// hedges, degraded serves).
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"agcm/internal/server"
)

// Options configures a Gateway.  The zero value of every field but
// Backends takes the documented default.
type Options struct {
	// Backends are the agcmd base URLs ("http://host:port").  Required.
	Backends []string
	// Policy is the routing policy: "key-affinity" (default),
	// "round-robin", or "least-inflight".
	Policy string
	// ProbeInterval paces the active /readyz prober (default 250ms;
	// negative disables probing — tests drive health by hand).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (default 1s).
	ProbeTimeout time.Duration
	// FailThreshold is the consecutive transport-failure count that opens a
	// backend's circuit breaker (default 3).
	FailThreshold int
	// OpenFor is how long an open breaker ejects its backend before
	// half-open admits a probe (default 2s).
	OpenFor time.Duration
	// RetryMax caps retries per request (default 3).
	RetryMax int
	// RetryRatio tokens are deposited into the global retry budget per
	// accepted request; each retry or hedge withdraws one (default 0.2).
	RetryRatio float64
	// RetryBurst caps the retry budget's token bucket (default 10).
	RetryBurst float64
	// BackoffBase and BackoffCap bound the exponential retry backoff
	// (defaults 25ms and 1s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// AttemptTimeout bounds one proxied attempt (default 60s).
	AttemptTimeout time.Duration
	// HedgeDelay enables hedging for interactive requests when positive:
	// it is the delay before racing a second shard until enough latency
	// samples exist to use the observed p95 instead (0 disables hedging).
	HedgeDelay time.Duration
	// Seed feeds the deterministic backoff jitter (default 1).
	Seed int64
	// MaxBodyBytes bounds a request body (default 1<<20).
	MaxBodyBytes int64
	// Transport overrides the HTTP transport (tests inject fakes).
	Transport http.RoundTripper
	// Events, when set, receives one JSON line per gateway event (breaker
	// transitions, ejections, readmissions, hedges, degraded serves).
	Events io.Writer
}

func (o Options) withDefaults() Options {
	if o.Policy == "" {
		o.Policy = "key-affinity"
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = time.Second
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 3
	}
	if o.OpenFor <= 0 {
		o.OpenFor = 2 * time.Second
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 3
	}
	if o.RetryRatio <= 0 {
		o.RetryRatio = 0.2
	}
	if o.RetryBurst <= 0 {
		o.RetryBurst = 10
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 25 * time.Millisecond
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = time.Second
	}
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = 60 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.Transport == nil {
		o.Transport = &http.Transport{MaxIdleConnsPerHost: 32}
	}
	return o
}

// Gateway is the cluster front end: an http.Handler plus the health,
// breaker, retry, and hedging machinery behind it.
type Gateway struct {
	opt      Options
	backends []*backend
	policy   policy
	budget   *retryBudget
	backoff  *backoff
	metrics  *gatewayMetrics
	client   *http.Client
	events   *eventLog
	lat      *latencyRing

	// rootCtx is the gateway's lifecycle context: probes and hedge attempts
	// derive from it, so rootCancel in Close kills every in-flight request
	// the gateway owns (a client's canceled request already kills its own).
	rootCtx    context.Context
	rootCancel context.CancelFunc
	stop       chan struct{}
	stopped    sync.WaitGroup
}

// New builds a Gateway over the configured backends and starts its health
// prober.  Call Close to stop it.
func New(opt Options) (*Gateway, error) {
	if len(opt.Backends) == 0 {
		return nil, errors.New("gateway: at least one backend required")
	}
	opt = opt.withDefaults()
	pol, ok := policyByName(opt.Policy)
	if !ok {
		return nil, fmt.Errorf("gateway: unknown policy %q (want %s)",
			opt.Policy, strings.Join(PolicyNames(), ", "))
	}
	//lint:allow ctxflow gateway lifecycle root: rootCancel runs in Close, killing every probe and hedge the gateway owns
	rootCtx, rootCancel := context.WithCancel(context.Background())
	g := &Gateway{
		opt:        opt,
		policy:     pol,
		budget:     newRetryBudget(opt.RetryRatio, opt.RetryBurst),
		backoff:    newBackoff(opt.BackoffBase, opt.BackoffCap, opt.Seed),
		client:     &http.Client{Transport: opt.Transport},
		events:     &eventLog{w: opt.Events},
		lat:        &latencyRing{},
		rootCtx:    rootCtx,
		rootCancel: rootCancel,
		stop:       make(chan struct{}),
	}
	seen := make(map[string]bool, len(opt.Backends))
	for _, raw := range opt.Backends {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("gateway: bad backend URL %q", raw)
		}
		id := strings.TrimRight(raw, "/")
		if seen[id] {
			return nil, fmt.Errorf("gateway: duplicate backend %q", id)
		}
		seen[id] = true
		br := newBreaker(opt.FailThreshold, opt.OpenFor, nil)
		backendID := id
		br.onTransition = func(from, to BreakerState) {
			transition := from.String() + "->" + to.String()
			g.metrics.BreakerTransitions.Inc(backendID, transition)
			g.events.Emit("breaker", backendID, transition)
		}
		g.backends = append(g.backends, newBackend(id, id, br))
	}
	g.metrics = newGatewayMetrics(g.backends, g.budget.Tokens)
	if opt.ProbeInterval > 0 {
		g.stopped.Add(1)
		go g.prober()
	}
	return g, nil
}

// Close stops the health prober, cancels every probe and hedge goroutine
// the gateway owns, waits for all of them to exit, and releases idle
// connections.  After Close returns, no gateway goroutine touches metrics,
// breakers, or the transport again.  Stop accepting requests before calling
// Close: requests already in flight are joined, but a request arriving
// during Close races the join.
func (g *Gateway) Close() {
	g.rootCancel()
	close(g.stop)
	g.stopped.Wait()
	if t, ok := g.opt.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// Handler returns the gateway's HTTP mux: POST /v1/run, GET /healthz,
// GET /readyz, GET /metrics.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", g.handleRun)
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("/readyz", g.handleReadyz)
	mux.HandleFunc("/metrics", g.handleMetrics)
	return mux
}

// Metrics exposes the counter set for tests and embedding daemons.
func (g *Gateway) Metrics() *gatewayMetrics { return g.metrics }

// eventLog serializes structured events as JSON lines.
type eventLog struct {
	mu sync.Mutex
	w  io.Writer
}

// gatewayEvent is one structured log line.
type gatewayEvent struct {
	TimeMS  int64  `json:"t_ms"`
	Event   string `json:"event"`
	Backend string `json:"backend,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

func (l *eventLog) Emit(event, backend, detail string) {
	if l.w == nil {
		return
	}
	raw, _ := json.Marshal(gatewayEvent{
		TimeMS: time.Now().UnixMilli(), Event: event, Backend: backend, Detail: detail,
	})
	l.mu.Lock()
	l.w.Write(append(raw, '\n'))
	l.mu.Unlock()
}

// latencyRing keeps the last 128 successful-attempt latencies for the
// hedge-delay percentile.
type latencyRing struct {
	mu      sync.Mutex
	samples [128]float64
	n       int // total observed
}

func (r *latencyRing) Observe(seconds float64) {
	r.mu.Lock()
	r.samples[r.n%len(r.samples)] = seconds
	r.n++
	r.mu.Unlock()
}

// P95 returns the 95th-percentile sample, or 0 with fewer than 16 samples.
func (r *latencyRing) P95() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n < 16 {
		return 0
	}
	k := r.n
	if k > len(r.samples) {
		k = len(r.samples)
	}
	buf := make([]float64, k)
	copy(buf, r.samples[:k])
	sort.Float64s(buf)
	return buf[int(0.95*float64(k-1))]
}

// hedgeDelay is how long an interactive request waits on its primary shard
// before racing a second one: the observed p95 once enough samples exist,
// the configured floor before that.
func (g *Gateway) hedgeDelay() time.Duration {
	if p95 := g.lat.P95(); p95 > 0 {
		d := time.Duration(p95 * float64(time.Second))
		if d < time.Millisecond {
			d = time.Millisecond
		}
		if max := g.opt.AttemptTimeout / 2; d > max {
			d = max
		}
		return d
	}
	return g.opt.HedgeDelay
}

func errorBody(msg string) []byte {
	raw, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	return append(raw, '\n')
}

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// attemptResult is the outcome of one proxied attempt (or of the degraded
// cache-peek path).
type attemptResult struct {
	status   int
	header   http.Header
	body     []byte
	err      error // transport-level failure
	canceled bool  // abandoned by the gateway itself: no health verdict
}

// relayable reports whether the result is a final answer for the client
// rather than something the retry layer should mask.  429 (saturated), 502
// and 503 (transport-ish) are retried elsewhere; everything else — 200,
// client errors, and deterministic simulation errors (500, 504) — is the
// backend doing its job.
func (a *attemptResult) relayable() bool {
	if a == nil || a.err != nil || a.canceled {
		return false
	}
	switch a.status {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable:
		return false
	}
	return true
}

func (g *Gateway) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		g.metrics.Requests.Inc("rejected")
		writeJSON(w, http.StatusMethodNotAllowed, errorBody("POST only"))
		return
	}
	raw, err := io.ReadAll(io.LimitReader(r.Body, g.opt.MaxBodyBytes))
	if err != nil {
		g.metrics.Requests.Inc("rejected")
		writeJSON(w, http.StatusBadRequest, errorBody("reading body: "+err.Error()))
		return
	}
	// Validate up front: garbage is rejected at the edge, and the job key
	// (the routing and cache address) exists before any backend is touched.
	req, err := server.DecodeRequest(bytes.NewReader(raw), r.Header)
	if err != nil {
		g.metrics.Requests.Inc("rejected")
		writeJSON(w, http.StatusBadRequest, errorBody(err.Error()))
		return
	}
	key, class := req.Key, req.Class
	g.metrics.ClassRequests.Inc(class.String())
	// The client's Accept travels with every backend request below, so a
	// frame client gets the frame whichever path answers.
	accept := r.Header.Get("Accept")

	g.budget.Deposit()
	res, attempts := g.proxyWithRetries(r.Context(), key, class, accept, raw)
	if res != nil && res.relayable() {
		g.relay(w, res, attempts, "")
		label := "ok"
		switch {
		case res.status >= 500:
			label = "error"
		case res.status >= 400:
			label = "rejected"
		}
		g.metrics.Requests.Inc(label)
		return
	}

	// Graceful degradation: before shedding, serve the cached bytes from
	// any backend that has them — content addressing makes any copy THE
	// answer.
	if peek := g.degradedPeek(r.Context(), key, accept); peek != nil {
		g.events.Emit("degraded", "", key)
		g.metrics.Requests.Inc("degraded")
		g.relay(w, peek, attempts, "degraded")
		return
	}

	// Shed.  Relay a backend's own 429/503 verbatim (its Retry-After is the
	// best available estimate); otherwise synthesize a 503.
	g.metrics.Requests.Inc("shed")
	if res != nil && res.err == nil && !res.canceled {
		g.relay(w, res, attempts, "")
		return
	}
	w.Header().Set("Retry-After", "1")
	w.Header().Set("X-Agcmgw-Attempts", strconv.Itoa(attempts))
	writeJSON(w, http.StatusServiceUnavailable, errorBody("no backend available"))
}

// relay writes an attempt's response to the client, forwarding the headers
// that matter and stamping the gateway's own.
func (g *Gateway) relay(w http.ResponseWriter, res *attemptResult, attempts int, mode string) {
	for _, h := range []string{"Content-Type", "Retry-After", "X-Agcmd-Cache", "X-Agcmd-Backend"} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	w.Header().Set("X-Agcmgw-Attempts", strconv.Itoa(attempts))
	if mode != "" {
		w.Header().Set("X-Agcmgw-Degraded", "1")
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// proxyWithRetries drives the attempt loop: pick a backend by policy,
// attempt, classify, and either relay, retry elsewhere (budget and backoff
// permitting), or give up.  It returns the last result (nil if no attempt
// ran) and the attempt count.
func (g *Gateway) proxyWithRetries(ctx context.Context, key string, class server.SLOClass, accept string, body []byte) (*attemptResult, int) {
	var last *attemptResult
	attempts := 0
	lastIdx := -1
	for retry := 0; retry <= g.opt.RetryMax; retry++ {
		if retry > 0 {
			if !g.budget.Take() {
				g.metrics.RetryExhausted.Inc()
				g.events.Emit("retry_budget_exhausted", "", key)
				break
			}
			g.metrics.Retries.Inc()
			select {
			case <-time.After(g.backoff.Delay(retry)):
			case <-ctx.Done():
				return last, attempts
			}
		}
		var res *attemptResult
		var idx int
		// Only interactive requests are worth a second shard.
		if retry == 0 && class == server.Interactive && g.opt.HedgeDelay > 0 {
			res, idx = g.hedged(ctx, key, class, accept, body)
		} else {
			b, probe, i := g.pick(key, lastIdx)
			if b == nil {
				break
			}
			res, idx = g.attempt(ctx, b, probe, class, accept, body), i
		}
		if res == nil {
			break
		}
		attempts++
		last, lastIdx = res, idx
		if res.relayable() {
			return res, attempts
		}
		if ctx.Err() != nil {
			return last, attempts
		}
	}
	return last, attempts
}

// pick selects the next backend: first pass honors readiness, cooldowns,
// and breakers and skips the backend that just failed; the relaxed second
// pass only requires the breaker to admit (so a half-open probe or a
// cooling-down backend is still reachable when it is the only hope).  probe
// reports that the breaker's half-open slot was claimed and must be
// resolved via Record or Forgive.
func (g *Gateway) pick(key string, exclude int) (b *backend, probe bool, idx int) {
	order := g.policy.Order(key, g.backends)
	now := time.Now()
	for _, i := range order {
		if i == exclude && len(g.backends) > 1 {
			continue
		}
		cand := g.backends[i]
		if !cand.ready.Load() || cand.inCooldown(now) {
			continue
		}
		if ok, pr := cand.breaker.Allow(); ok {
			return cand, pr, i
		}
	}
	for _, i := range order {
		cand := g.backends[i]
		if ok, pr := cand.breaker.Allow(); ok {
			return cand, pr, i
		}
	}
	return nil, false, -1
}

// attempt proxies one POST /v1/run to one backend under the client's Accept
// (none when empty), reads the full response, classifies it, and feeds the
// breaker, cooldowns, metrics, and the latency ring.
func (g *Gateway) attempt(ctx context.Context, b *backend, probe bool, class server.SLOClass, accept string, body []byte) *attemptResult {
	actx, cancel := context.WithTimeout(ctx, g.opt.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, b.url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		b.breaker.Forgive(probe)
		return &attemptResult{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	// Propagate the resolved class so the backend's scheduler and per-class
	// metrics see it even when the body has no explicit slo field.
	req.Header.Set(server.SLOHeader, class.String())
	if accept != "" {
		req.Header.Set("Accept", accept)
	}

	b.inflight.Add(1)
	start := time.Now()
	resp, err := g.client.Do(req)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	elapsed := time.Since(start)
	b.inflight.Add(-1)

	if err != nil {
		// The gateway abandoning the attempt (hedge loser, client gone) says
		// nothing about the backend; everything else is a transport failure.
		if ctx.Err() == context.Canceled {
			g.metrics.BackendCanceled.Inc(b.id)
			b.breaker.Forgive(probe)
			return &attemptResult{err: err, canceled: true}
		}
		g.metrics.BackendErrors.Inc(b.id)
		b.breaker.Record(false, probe)
		return &attemptResult{err: err}
	}

	g.metrics.BackendResponses.Inc(b.id, strconv.Itoa(resp.StatusCode))
	res := &attemptResult{status: resp.StatusCode, header: resp.Header, body: raw}
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		// Saturation is not ill health: the breaker sees success, and the
		// backend's own Retry-After becomes its routing cooldown.
		b.breaker.Record(true, probe)
		b.coolDown(time.Now(), retryAfterDuration(resp.Header, time.Second))
	case http.StatusBadGateway, http.StatusServiceUnavailable:
		b.breaker.Record(false, probe)
		b.coolDown(time.Now(), retryAfterDuration(resp.Header, 0))
	default:
		b.breaker.Record(true, probe)
		if resp.StatusCode == http.StatusOK {
			g.lat.Observe(elapsed.Seconds())
		}
	}
	return res
}

// maxRetryAfter caps a backend's Retry-After.  Uncapped, a huge value
// overflows the cooldown's nanosecond deadline and ends the cooldown at once.
const maxRetryAfter = time.Hour

// retryAfterDuration parses a Retry-After header in seconds, capped at
// maxRetryAfter, returning fallback when absent or unparseable.
func retryAfterDuration(h http.Header, fallback time.Duration) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return fallback
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return fallback
	}
	return time.Duration(min(secs, int(maxRetryAfter/time.Second))) * time.Second
}

// hedged races two shards for an interactive request: the policy's primary
// immediately, and — if it has not answered within the hedge delay — the
// next-ranked backend, budget permitting.  The first full response wins and
// the loser is canceled via context.  Returns the winning result and its
// backend index.
func (g *Gateway) hedged(ctx context.Context, key string, class server.SLOClass, accept string, body []byte) (*attemptResult, int) {
	b1, probe1, idx1 := g.pick(key, -1)
	if b1 == nil {
		return nil, -1
	}
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	// Tie the hedge to the gateway's lifecycle: Close cancels rootCtx, which
	// cancels both attempts, so the goroutines below — all tracked in
	// g.stopped — exit promptly and Close's Wait can join them.
	unbind := context.AfterFunc(g.rootCtx, hcancel)
	defer unbind()
	type outcome struct {
		res *attemptResult
		idx int
	}
	// Two slots: one per attempt, so neither send can block after this
	// function stops receiving.
	ch := make(chan outcome, 2)
	g.stopped.Add(1)
	go func() {
		defer g.stopped.Done()
		ch <- outcome{g.attempt(hctx, b1, probe1, class, accept, body), idx1}
	}()

	timer := time.NewTimer(g.hedgeDelay())
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.res, out.idx
	case <-timer.C:
	}

	b2, probe2, idx2 := g.pick(key, idx1)
	if b2 == nil || idx2 == idx1 || !g.budget.Take() {
		if b2 != nil {
			b2.breaker.Forgive(probe2)
		}
		//lint:allow ctxflow bounded wait: the attempt is deadline-bound by AttemptTimeout and canceled through hctx on both caller cancel and Close
		out := <-ch
		return out.res, out.idx
	}
	g.metrics.Hedges.Inc("launched")
	g.events.Emit("hedge", b2.id, key)
	g.stopped.Add(1)
	go func() {
		defer g.stopped.Done()
		ch <- outcome{g.attempt(hctx, b2, probe2, class, accept, body), idx2}
	}()

	//lint:allow ctxflow bounded wait: both attempts are deadline-bound by AttemptTimeout and canceled through hctx on both caller cancel and Close
	out := <-ch
	hcancel() // the loser's attempt sees context.Canceled and is forgiven
	if out.idx == idx2 {
		g.metrics.Hedges.Inc("won")
	}
	// Reap the loser off the buffered channel; completed-but-discarded
	// responses count as lost hedges (they appear in the backend's own
	// counters, which reconciliation must subtract).  The reaper is joined
	// by Close: without the g.stop case it would linger until the loser's
	// attempt timed out on its own, touching metrics after Close returned.
	g.stopped.Add(1)
	go func() {
		defer g.stopped.Done()
		select {
		case lost := <-ch:
			if lost.res != nil && !lost.res.canceled && lost.res.err == nil {
				g.metrics.Hedges.Inc("lost")
			}
		case <-g.stop:
			// Close is joining us; the loser is being canceled via rootCtx
			// and its discarded verdict no longer matters.
		}
	}()
	return out.res, out.idx
}

// degradedPeek asks every backend, in policy order and regardless of
// health, whether it has the key's bytes cached (GET /v1/cache/{key}, in the
// encoding the client's Accept negotiates).  A dying or draining backend can
// still answer — content addressing makes any copy authoritative.
func (g *Gateway) degradedPeek(ctx context.Context, key, accept string) *attemptResult {
	timeout := 2 * time.Second
	if g.opt.AttemptTimeout < timeout {
		timeout = g.opt.AttemptTimeout
	}
	for _, i := range g.policy.Order(key, g.backends) {
		b := g.backends[i]
		pctx, cancel := context.WithTimeout(ctx, timeout)
		req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.url+"/v1/cache/"+key, nil)
		if err != nil {
			cancel()
			continue
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := g.client.Do(req)
		if err != nil {
			cancel()
			continue
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		return &attemptResult{status: http.StatusOK, header: resp.Header, body: raw}
	}
	return nil
}

// prober is the active health loop: every interval it GETs each backend's
// /readyz, maintains the ready bit (ejection/readmission events on flips),
// and feeds the breaker — failures count toward opening it, and in
// half-open the probe's verdict alone decides recovery, so an idle backend
// is readmitted without risking client traffic.
func (g *Gateway) prober() {
	defer g.stopped.Done()
	t := time.NewTicker(g.opt.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
		}
		for _, b := range g.backends {
			g.probeOne(b)
		}
	}
}

func (g *Gateway) probeOne(b *backend) {
	// Probes derive from the gateway's lifecycle context, not a fresh root:
	// Close must not block up to ProbeTimeout behind a probe of a slow or
	// dead backend.
	ctx, cancel := context.WithTimeout(g.rootCtx, g.opt.ProbeTimeout)
	defer cancel()
	ok := false
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/readyz", nil)
	if err == nil {
		resp, err := g.client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	if g.rootCtx.Err() != nil {
		// The gateway is shutting down: this probe was canceled mid-flight
		// and its verdict says nothing about the backend.
		return
	}
	verdict := "fail"
	if ok {
		verdict = "ok"
	}
	g.metrics.Probes.Inc(verdict)
	if prev := b.ready.Swap(ok); prev != ok {
		if ok {
			g.events.Emit("readmit", b.id, "readyz ok")
		} else {
			g.events.Emit("eject", b.id, "readyz failed")
		}
	}
	if ok {
		// A healthy probe drives half-open recovery, but must not reset the
		// closed breaker's consecutive-failure count: /readyz succeeding
		// says nothing about /v1/run succeeding.
		if allowed, isProbe := b.breaker.Allow(); allowed && isProbe {
			b.breaker.Record(true, true)
		}
		return
	}
	if allowed, isProbe := b.breaker.Allow(); allowed && isProbe {
		b.breaker.Record(false, true)
	} else if b.breaker.State() == BreakerClosed {
		b.breaker.Record(false, false)
	}
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz reports ready while at least one backend is routable.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	for _, b := range g.backends {
		if b.eligible(now) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, "ready\n")
			return
		}
	}
	http.Error(w, "no eligible backend", http.StatusServiceUnavailable)
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.metrics.reg.WriteText(w)
}
