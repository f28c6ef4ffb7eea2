package gateway

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"agcm/internal/server"
)

// reqJSON builds a valid /v1/run body (the gateway validates configs at the
// edge, so stubs still need real ones).
func reqJSON(px int, filter string, steps int) string {
	return fmt.Sprintf(`{"config":{"nlon":36,"nlat":24,"nlayers":3,"machine":"paragon",`+
		`"mesh_py":1,"mesh_px":%d,"filter":%q},"steps":%d}`, px, filter, steps)
}

// stubBackend fakes an agcmd: a scripted /v1/run handler plus conventional
// /readyz and /v1/cache handlers.
type stubBackend struct {
	ts    *httptest.Server
	ready atomic.Bool
	runs  atomic.Int64
	run   func(w http.ResponseWriter, r *http.Request)
	// cached, when non-empty, is served for every /v1/cache/{key} GET.
	cached atomic.Pointer[string]
	// accepts holds "path: Accept values" of every run and cache request.
	mu      sync.Mutex
	accepts []string
}

func (b *stubBackend) sawAccept(r *http.Request) {
	b.mu.Lock()
	b.accepts = append(b.accepts, fmt.Sprintf("%s: %q", r.URL.Path, r.Header.Values("Accept")))
	b.mu.Unlock()
}

func newStubBackend(run func(w http.ResponseWriter, r *http.Request)) *stubBackend {
	b := &stubBackend{run: run}
	b.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		b.runs.Add(1)
		b.sawAccept(r)
		b.run(w, r)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !b.ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("/v1/cache/", func(w http.ResponseWriter, r *http.Request) {
		b.sawAccept(r)
		if body := b.cached.Load(); body != nil && *body != "" {
			w.Header().Set("X-Agcmd-Cache", "peek")
			io.WriteString(w, *body)
			return
		}
		http.Error(w, "not cached", http.StatusNotFound)
	})
	b.ts = httptest.NewServer(mux)
	return b
}

func ok200(body string) func(w http.ResponseWriter, r *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, body)
	}
}

func always503(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "boom", http.StatusServiceUnavailable)
}

// newTestGateway builds a gateway over the stubs with probing disabled
// (tests drive health by hand) and fast backoff.
func newTestGateway(t *testing.T, opt Options, stubs ...*stubBackend) *Gateway {
	t.Helper()
	for _, s := range stubs {
		opt.Backends = append(opt.Backends, s.ts.URL)
	}
	if opt.ProbeInterval == 0 {
		opt.ProbeInterval = -1
	}
	if opt.BackoffBase == 0 {
		opt.BackoffBase = time.Millisecond
	}
	if opt.BackoffCap == 0 {
		opt.BackoffCap = 4 * time.Millisecond
	}
	g, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func postGW(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// TestRetryMasksBackendFailure: the primary backend answers 503; the retry
// layer must fail over to the healthy one and the client sees a clean 200.
func TestRetryMasksBackendFailure(t *testing.T) {
	bad := newStubBackend(always503)
	good := newStubBackend(ok200(`{"key":"k","report":{}}` + "\n"))
	defer bad.ts.Close()
	defer good.ts.Close()
	// round-robin starts at backend 0 (bad) for the first request.
	g := newTestGateway(t, Options{Policy: "round-robin"}, bad, good)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	st, h, body := postGW(t, ts.URL, reqJSON(1, "fft", 1))
	if st != 200 {
		t.Fatalf("status %d, want 200 (failure must be masked): %s", st, body)
	}
	if got := h.Get("X-Agcmgw-Attempts"); got != "2" {
		t.Errorf("X-Agcmgw-Attempts = %q, want 2", got)
	}
	if g.metrics.Retries.Get() != 1 {
		t.Errorf("retries = %d, want 1", g.metrics.Retries.Get())
	}
	if bad.runs.Load() != 1 || good.runs.Load() != 1 {
		t.Errorf("backend runs = %d/%d, want 1/1", bad.runs.Load(), good.runs.Load())
	}
}

// TestBreakerOpensEjectsAndRecovers: repeated 503s open the primary's
// breaker (ejecting it from routing), and once it heals a half-open probe
// readmits it.
func TestBreakerOpensEjectsAndRecovers(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	flaky := newStubBackend(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			always503(w, r)
			return
		}
		ok200(`{"ok":true}`+"\n")(w, r)
	})
	good := newStubBackend(ok200(`{"ok":true}` + "\n"))
	defer flaky.ts.Close()
	defer good.ts.Close()
	g := newTestGateway(t, Options{
		Policy:        "round-robin",
		FailThreshold: 2,
		OpenFor:       300 * time.Millisecond,
	}, flaky, good)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	// Two failed attempts trip the breaker; each request still succeeds via
	// the healthy backend.
	for i := 0; i < 2; i++ {
		if st, _, b := postGW(t, ts.URL, reqJSON(1, "fft", 1)); st != 200 {
			t.Fatalf("request %d: status %d: %s", i, st, b)
		}
	}
	if got := g.backends[0].breaker.State(); got != BreakerOpen {
		t.Fatalf("breaker state %v, want open after %d failures", got, 2)
	}
	// While open, round-robin's turn on the flaky backend is skipped: no new
	// attempts land on it.
	before := flaky.runs.Load()
	for i := 0; i < 4; i++ {
		if st, _, _ := postGW(t, ts.URL, reqJSON(1, "fft", 1)); st != 200 {
			t.Fatalf("request during ejection: status %d", st)
		}
	}
	if got := flaky.runs.Load(); got != before {
		t.Fatalf("ejected backend received %d new requests", got-before)
	}

	// Heal it, wait out the open interval: the next attempt through is the
	// probe and readmission follows.
	failing.Store(false)
	time.Sleep(350 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for g.backends[0].breaker.State() != BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed; state %v", g.backends[0].breaker.State())
		}
		if st, _, _ := postGW(t, ts.URL, reqJSON(1, "fft", 1)); st != 200 {
			t.Fatalf("request during recovery: status %d", st)
		}
	}
	if n := g.metrics.BreakerTransitions.Total(); n < 3 {
		t.Errorf("breaker transitions = %d, want >= 3 (trip, probe, close)", n)
	}
}

// TestSaturationCooldown: a backend's 429 Retry-After becomes a routing
// cooldown — the next request goes elsewhere without burning an attempt on
// the saturated shard.
func TestSaturationCooldown(t *testing.T) {
	busy := newStubBackend(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "60")
		http.Error(w, "queue full", http.StatusTooManyRequests)
	})
	good := newStubBackend(ok200(`{"ok":true}` + "\n"))
	defer busy.ts.Close()
	defer good.ts.Close()
	g := newTestGateway(t, Options{Policy: "round-robin"}, busy, good)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	if st, _, _ := postGW(t, ts.URL, reqJSON(1, "fft", 1)); st != 200 {
		t.Fatalf("first request not masked")
	}
	if busy.runs.Load() != 1 {
		t.Fatalf("busy backend saw %d requests, want 1", busy.runs.Load())
	}
	// The breaker must NOT have tripped — saturation is not ill health.
	if got := g.backends[0].breaker.State(); got != BreakerClosed {
		t.Fatalf("breaker %v after 429, want closed", got)
	}
	// Round-robin would start at the busy backend again, but the cooldown
	// steers around it with zero extra attempts.
	st, h, _ := postGW(t, ts.URL, reqJSON(2, "fft", 1))
	if st != 200 || h.Get("X-Agcmgw-Attempts") != "1" {
		t.Fatalf("cooldown not honored: status %d attempts %s", st, h.Get("X-Agcmgw-Attempts"))
	}
	if busy.runs.Load() != 1 {
		t.Fatalf("saturated backend was retried during its Retry-After window")
	}
}

// TestHugeRetryAfterKeepsCooldown: a Retry-After too large for a
// time.Duration still keeps the saturated backend out of routing; uncapped,
// the cooldown's deadline wrapped into the past and ended at once.
func TestHugeRetryAfterKeepsCooldown(t *testing.T) {
	busy := newStubBackend(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "99999999999")
		http.Error(w, "queue full", http.StatusTooManyRequests)
	})
	good := newStubBackend(ok200(`{"ok":true}` + "\n"))
	defer busy.ts.Close()
	defer good.ts.Close()
	g := newTestGateway(t, Options{Policy: "round-robin"}, busy, good)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	if st, _, _ := postGW(t, ts.URL, reqJSON(1, "fft", 1)); st != 200 || busy.runs.Load() != 1 {
		t.Fatalf("first request: status %d, busy backend saw %d requests, want 200 and 1", st, busy.runs.Load())
	}
	st, h, _ := postGW(t, ts.URL, reqJSON(2, "fft", 1))
	if st != 200 || h.Get("X-Agcmgw-Attempts") != "1" || busy.runs.Load() != 1 {
		t.Fatalf("cooldown not honored: status %d attempts %s, busy backend saw %d requests",
			st, h.Get("X-Agcmgw-Attempts"), busy.runs.Load())
	}
}

// TestRetryBudgetBoundsAmplification: with every backend failing, the
// token bucket caps total retries no matter how many requests arrive.
func TestRetryBudgetBoundsAmplification(t *testing.T) {
	b1 := newStubBackend(always503)
	b2 := newStubBackend(always503)
	defer b1.ts.Close()
	defer b2.ts.Close()
	g := newTestGateway(t, Options{
		Policy:     "round-robin",
		RetryMax:   4,
		RetryRatio: 0.1,
		RetryBurst: 3,
	}, b1, b2)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	const n = 20
	for i := 0; i < n; i++ {
		st, _, _ := postGW(t, ts.URL, reqJSON(1, "fft", 1))
		if st != http.StatusServiceUnavailable && st != http.StatusTooManyRequests {
			t.Fatalf("request %d: status %d, want 503/429", i, st)
		}
	}
	// Budget bound: burst (3) + deposits (n × 0.1 = 2) = 5 retries max.
	maxRetries := uint64(3 + n/10)
	if got := g.metrics.Retries.Get(); got > maxRetries {
		t.Fatalf("retries = %d, want <= %d (budget must bound amplification)", got, maxRetries)
	}
	if g.metrics.Requests.Get("shed") != n {
		t.Errorf("shed = %d, want %d", g.metrics.Requests.Get("shed"), n)
	}
	attempts := b1.runs.Load() + b2.runs.Load()
	if attempts > int64(n)+int64(maxRetries) {
		t.Fatalf("backends saw %d attempts for %d requests: amplification", attempts, n)
	}
}

// TestDegradedServeFromAnyCache: when no backend can run the job, a cached
// copy anywhere in the cluster still answers — 200, marked degraded.
func TestDegradedServeFromAnyCache(t *testing.T) {
	down := newStubBackend(always503)
	holder := newStubBackend(always503)
	cached := `{"key":"abc","report":{"total_s_day":1}}` + "\n"
	holder.cached.Store(&cached)
	defer down.ts.Close()
	defer holder.ts.Close()
	g := newTestGateway(t, Options{Policy: "key-affinity", RetryMax: 1, RetryBurst: 1, RetryRatio: 0.01}, down, holder)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	st, h, body := postGW(t, ts.URL, reqJSON(1, "fft", 1))
	if st != 200 {
		t.Fatalf("status %d, want 200 (degraded serve): %s", st, body)
	}
	if h.Get("X-Agcmgw-Degraded") != "1" {
		t.Errorf("missing X-Agcmgw-Degraded header")
	}
	if string(body) != cached {
		t.Errorf("degraded body %q, want the cached bytes", body)
	}
	if g.metrics.Requests.Get("degraded") != 1 {
		t.Errorf("degraded counter = %d, want 1", g.metrics.Requests.Get("degraded"))
	}
}

// TestAcceptForwardedOnEveryPath: the client's Accept must reach the backend
// on the first attempt, the hedge, the retry and the degraded cache peek, and a
// client that sent none must have none added.  Whichever backend is hit first
// holds its 503 until the hedge has reached the other, so one request walks
// all four paths.
func TestAcceptForwardedOnEveryPath(t *testing.T) {
	for _, accept := range []string{"", server.FrameContentType} {
		var arrivals atomic.Int64
		hedged := make(chan struct{})
		run := func(w http.ResponseWriter, r *http.Request) {
			switch arrivals.Add(1) {
			case 1:
				select {
				case <-hedged:
				case <-r.Context().Done():
				}
			case 2:
				close(hedged)
			}
			always503(w, r)
		}
		a, b := newStubBackend(run), newStubBackend(run)
		cached := "cached bytes\n"
		a.cached.Store(&cached)
		b.cached.Store(&cached)
		g := newTestGateway(t, Options{HedgeDelay: time.Millisecond, RetryMax: 1}, a, b)
		ts := httptest.NewServer(g.Handler())

		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", strings.NewReader(
			`{"config":{"nlon":36,"nlat":24,"nlayers":3,"machine":"paragon","mesh_py":1,"mesh_px":1,"filter":"fft"},"steps":1,"slo":"interactive"}`))
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || string(body) != cached || resp.Header.Get("X-Agcmgw-Degraded") != "1" {
			t.Errorf("Accept %q: status %d, body %q; want the degraded serve of the cached bytes", accept, resp.StatusCode, body)
		}
		if g.metrics.Hedges.Get("launched") != 1 || g.metrics.Retries.Get() != 1 {
			t.Errorf("Accept %q: %d hedges, %d retries; want one of each", accept, g.metrics.Hedges.Get("launched"), g.metrics.Retries.Get())
		}
		ts.Close()
		a.ts.Close()
		b.ts.Close()
		want := "[]"
		if accept != "" {
			want = fmt.Sprintf("%q", []string{accept})
		}
		seen := append(a.accepts, b.accepts...)
		runs, peeks := 0, 0
		for _, line := range seen {
			switch path, got, _ := strings.Cut(line, ": "); {
			case got != want:
				t.Errorf("Accept %q: backend saw %s", accept, line)
			case path == "/v1/run":
				runs++
			default:
				peeks++
			}
		}
		if runs != 3 || peeks != 1 {
			t.Errorf("Accept %q: %d run attempts and %d peeks reached the backends, want 3 and 1: %v", accept, runs, peeks, seen)
		}
	}
}

// TestHedgingRacesSecondShard: an interactive request on a slow primary is
// hedged onto the next shard after the hedge delay, and the faster response
// wins.
func TestHedgingRacesSecondShard(t *testing.T) {
	slowBody := `{"who":"slow"}` + "\n"
	fastBody := `{"who":"fast"}` + "\n"
	release := make(chan struct{})
	slow := newStubBackend(func(w http.ResponseWriter, r *http.Request) {
		<-release
		io.WriteString(w, slowBody)
	})
	fast := newStubBackend(ok200(fastBody))
	defer slow.ts.Close()
	defer fast.ts.Close()
	defer close(release)

	// Make the slow stub the deterministic primary: key-affinity ranks by
	// (url, key), so find a filter whose key lands on it.
	g := newTestGateway(t, Options{Policy: "key-affinity", HedgeDelay: 5 * time.Millisecond}, slow, fast)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	slowIdx := 0
	if g.backends[0].url != slow.ts.URL {
		slowIdx = 1
	}
	body := ""
	for px := 1; px <= 16; px++ {
		cand := fmt.Sprintf(`{"config":{"nlon":36,"nlat":24,"nlayers":3,"machine":"paragon",`+
			`"mesh_py":1,"mesh_px":%d,"filter":"fft"},"steps":1,"slo":"interactive"}`, px)
		key := keyForBody(t, cand)
		if g.policy.Order(key, g.backends)[0] == slowIdx {
			body = cand
			break
		}
	}
	if body == "" {
		t.Fatal("no candidate key ranked the slow backend first")
	}

	st, _, raw := postGW(t, ts.URL, body)
	if st != 200 {
		t.Fatalf("status %d: %s", st, raw)
	}
	if string(raw) != fastBody {
		t.Fatalf("winner body %q, want the hedged shard's %q", raw, fastBody)
	}
	if g.metrics.Hedges.Get("launched") != 1 || g.metrics.Hedges.Get("won") != 1 {
		t.Errorf("hedges launched/won = %d/%d, want 1/1",
			g.metrics.Hedges.Get("launched"), g.metrics.Hedges.Get("won"))
	}
}

// keyForBody computes the job key the way the gateway does.
func keyForBody(t *testing.T, body string) string {
	t.Helper()
	req, err := server.DecodeRequest(strings.NewReader(body), http.Header{})
	if err != nil {
		t.Fatal(err)
	}
	return req.Key
}

// TestProbeEjectionAndReadmission: the active prober flips a backend's
// ready bit on /readyz failures and back on recovery, steering traffic
// without waiting for request failures.
func TestProbeEjectionAndReadmission(t *testing.T) {
	a := newStubBackend(ok200(`{"who":"a"}` + "\n"))
	b := newStubBackend(ok200(`{"who":"b"}` + "\n"))
	defer a.ts.Close()
	defer b.ts.Close()
	g := newTestGateway(t, Options{Policy: "round-robin", ProbeInterval: 5 * time.Millisecond}, a, b)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	a.ready.Store(false)
	deadline := time.Now().Add(2 * time.Second)
	for g.backends[0].ready.Load() {
		if time.Now().After(deadline) {
			t.Fatal("prober never ejected the not-ready backend")
		}
		time.Sleep(time.Millisecond)
	}
	before := a.runs.Load()
	for i := 0; i < 4; i++ {
		if st, _, _ := postGW(t, ts.URL, reqJSON(1, "fft", 1)); st != 200 {
			t.Fatalf("request while ejected: %d", st)
		}
	}
	if got := a.runs.Load(); got != before {
		t.Fatalf("not-ready backend received %d requests", got-before)
	}

	a.ready.Store(true)
	deadline = time.Now().Add(2 * time.Second)
	for !g.backends[0].ready.Load() {
		if time.Now().After(deadline) {
			t.Fatal("prober never readmitted the recovered backend")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGatewayRejectsGarbageAtTheEdge: both daemon edges run the one shared
// decoder, so every malformed body is a 400 at agcmd and at agcmgw, counted
// as rejected, and through the gateway it never reaches a backend.
func TestGatewayRejectsGarbageAtTheEdge(t *testing.T) {
	const cfg = `{"config":{"nlon":36,"nlat":24,"nlayers":3,"machine":"paragon","mesh_py":1,"mesh_px":1}`
	cases := []struct{ name, body string }{
		{"syntax", `{`},
		{"missing config", `{"steps":1}`},
		{"bad machine", `{"config":{"machine":"nope","nlon":36,"nlat":24,"nlayers":3,"mesh_py":1,"mesh_px":1}}`},
		{"negative steps", cfg + `,"steps":-2}`},
		{"unknown field", cfg + `,"stepz":1}`},
		{"retired priority field", cfg + `,"priority":"high"}`},
		{"unknown slo class", cfg + `,"slo":"bulk"}`},
		{"trailing object", cfg + `,"steps":1}{"steps":99} garbage`},
		{"trailing brace", cfg + `,"steps":1}}`},
	}

	srv, err := server.New(server.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())
	agcmd := httptest.NewServer(srv.Handler())
	defer agcmd.Close()
	b := newStubBackend(ok200(`{"ok":true}` + "\n"))
	defer b.ts.Close()
	g := newTestGateway(t, Options{}, b)
	agcmgw := httptest.NewServer(g.Handler())
	defer agcmgw.Close()

	for _, tc := range cases {
		for edge, url := range map[string]string{"agcmd": agcmd.URL, "agcmgw": agcmgw.URL} {
			if st, _, raw := postGW(t, url, tc.body); st != http.StatusBadRequest {
				t.Errorf("%s at %s: status %d, want 400: %s", tc.name, edge, st, raw)
			}
		}
	}
	if srv.Runs() != 0 || b.runs.Load() != 0 {
		t.Errorf("garbage ran a simulation or reached a backend")
	}
	if got := g.metrics.Requests.Get("rejected"); got != uint64(len(cases)) {
		t.Errorf("gateway rejected = %d, want %d", got, len(cases))
	}
	resp, err := http.Get(agcmd.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("agcmd_requests_total{result=\"rejected\"} %d\n", len(cases)); !strings.Contains(string(raw), want) {
		t.Errorf("agcmd /metrics lacks %q:\n%s", want, raw)
	}
}

// fixedBackends builds three backends in distinct states — a open, not ready,
// one request in flight; b closed and idle; c half-open with two in flight —
// given out of ID order, since emission must sort them.
func fixedBackends() []*backend {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	a := newBackend("http://a", "http://a", newBreaker(1, time.Hour, clock))
	a.breaker.Record(false, false)
	a.ready.Store(false)
	a.inflight.Add(1)
	c := newBackend("http://c", "http://c", newBreaker(1, 0, clock))
	c.breaker.Record(false, false) // openFor 0: open decays to half-open at once
	c.inflight.Add(2)
	return []*backend{c, a, newBackend("http://b", "http://b", newBreaker(1, time.Hour, clock))}
}

// scriptMetrics replays the fixed event sequence behind testdata/metrics.golden.
func scriptMetrics(m *gatewayMetrics) {
	for _, r := range []string{"ok", "ok", "rejected", "shed", "ok", "degraded", "error"} {
		m.Requests.Inc(r)
	}
	for _, r := range [][2]string{
		{"http://a", "200"}, {"http://b", "200"}, {"http://a", "503"},
		{"http://b", "429"}, {"http://a", "200"}, {"http://c", "400"},
	} {
		m.BackendResponses.Inc(r[0], r[1])
	}
	m.BackendErrors.Inc("http://a")
	m.BackendCanceled.Inc("http://b")
	for _, tr := range [][2]string{
		{"http://a", "closed->open"}, {"http://c", "closed->open"},
		{"http://c", "open->half-open"}, {"http://a", "closed->open"},
	} {
		m.BreakerTransitions.Inc(tr[0], tr[1])
	}
	m.Retries.Inc()
	m.Retries.Inc()
	m.RetryExhausted.Inc()
	for _, h := range []string{"launched", "won", "launched", "lost"} {
		m.Hedges.Inc(h)
	}
	for _, v := range []string{"ok", "fail", "ok"} {
		m.Probes.Inc(v)
	}
	for _, c := range []string{"interactive", "batch", "batch"} {
		m.ClassRequests.Inc(c)
	}
}

// TestMetricsGolden pins agcmgw's /metrics exposition byte for byte.  The
// golden file was generated by the hand-unrolled emitter this package had
// before internal/metrics, from the same event sequence.
func TestMetricsGolden(t *testing.T) {
	var got bytes.Buffer
	got.WriteString("## scrape: three backends\n")
	m := newGatewayMetrics(fixedBackends(), func() float64 { return 7.5 })
	scriptMetrics(m)
	m.reg.WriteText(&got)
	got.WriteString("## scrape: fresh gateway\n")
	fresh := []*backend{newBackend("http://a", "http://a", newBreaker(3, time.Second, nil))}
	newGatewayMetrics(fresh, func() float64 { return 1e6 }).reg.WriteText(&got)
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("/metrics exposition drifted from testdata/metrics.golden:\n%s", got.Bytes())
	}
}

// TestMetricsDeterministicEmission: two scrapes of identical state are
// byte-identical (sorted labels, fixed family order).
func TestMetricsDeterministicEmission(t *testing.T) {
	m := newGatewayMetrics(fixedBackends(), func() float64 { return 7.5 })
	scriptMetrics(m)
	var buf1, buf2 strings.Builder
	m.reg.WriteText(&buf1)
	m.reg.WriteText(&buf2)
	if buf1.String() != buf2.String() {
		t.Fatal("two scrapes of identical state differ")
	}
	for _, want := range []string{
		`agcmgw_requests_total{result="ok"} 3`,
		`agcmgw_backend_responses_total{backend="http://a",code="503"} 1`,
		`agcmgw_breaker_transitions_total{backend="http://a",transition="closed->open"} 2`,
		`agcmgw_backend_state{backend="http://a"} 1`,
		`agcmgw_retry_budget_tokens 7.5`,
	} {
		if !strings.Contains(buf1.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, buf1.String())
		}
	}
}

// TestCloseCancelsInflightHedgeAttempts is the regression test for the
// goleak finding on the hedge path: the two attempt goroutines and the
// loser-reaper used to be invisible to Close — it returned while they were
// still blocked on backends, holding the client's context as their only way
// out.  Close must now cancel both in-flight attempts (through the gateway's
// root context) and join all three goroutines before returning.
func TestCloseCancelsInflightHedgeAttempts(t *testing.T) {
	var reqN, canceledN atomic.Int64
	// The first two /v1/run requests — the primary and its hedge — stall
	// until the server sees their context canceled; anything after (the
	// retry following Close) succeeds immediately so the client goroutine
	// finishes fast.
	stall := func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so net/http starts its background connection read;
		// without it the server never notices the client abort and
		// r.Context() is never canceled.
		io.Copy(io.Discard, r.Body)
		if reqN.Add(1) <= 2 {
			<-r.Context().Done()
			canceledN.Add(1)
			return
		}
		io.WriteString(w, `{"who":"late"}`+"\n")
	}
	b1 := newStubBackend(stall)
	b2 := newStubBackend(stall)
	defer b1.ts.Close()
	defer b2.ts.Close()

	g, err := New(Options{
		Backends:       []string{b1.ts.URL, b2.ts.URL},
		Policy:         "round-robin",
		ProbeInterval:  -1,
		HedgeDelay:     time.Millisecond,
		AttemptTimeout: 30 * time.Second,
		BackoffBase:    time.Millisecond,
		BackoffCap:     2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	body := `{"config":{"nlon":36,"nlat":24,"nlayers":3,"machine":"paragon",` +
		`"mesh_py":1,"mesh_px":1,"filter":"fft"},"steps":1,"slo":"interactive"}`
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", strings.NewReader(body))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	// Wait until the hedge is launched and both attempts are parked on the
	// backends.
	deadline := time.Now().Add(5 * time.Second)
	for g.metrics.Hedges.Get("launched") < 1 || reqN.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("hedge never got in flight: launched=%d backends hit=%d",
				g.metrics.Hedges.Get("launched"), reqN.Load())
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() {
		g.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close did not return while hedge attempts were in flight")
	}

	// Close's root-context cancellation must have reached both parked
	// attempts — well before the client's own 20s context could.
	deadline = time.Now().Add(2 * time.Second)
	for canceledN.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("after Close, %d of 2 in-flight hedge attempts were canceled; the goroutines leaked past Close",
				canceledN.Load())
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-clientDone:
	case <-time.After(5 * time.Second):
		t.Fatal("client request did not finish after Close")
	}
}

// TestCloseDoesNotAwaitSlowProbe is the regression test for the ctxflow
// finding in probeOne: probes derived from context.Background(), so Close —
// which joins the prober — blocked for up to ProbeTimeout behind a probe of
// a slow or dead backend.  With probes derived from the gateway's root
// context, Close cancels the in-flight probe and returns immediately.
func TestCloseDoesNotAwaitSlowProbe(t *testing.T) {
	probeStarted := make(chan struct{}, 1)
	var probeCanceled atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		select {
		case probeStarted <- struct{}{}:
		default:
		}
		<-r.Context().Done()
		probeCanceled.Add(1)
	})
	slow := httptest.NewServer(mux)
	defer slow.Close()

	g, err := New(Options{
		Backends:      []string{slow.URL},
		ProbeInterval: 2 * time.Millisecond,
		ProbeTimeout:  30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	select {
	case <-probeStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("prober never issued a probe")
	}

	start := time.Now()
	closed := make(chan struct{})
	go func() {
		g.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close blocked behind an in-flight probe of a slow backend")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close took %v, must not wait out ProbeTimeout", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for probeCanceled.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the in-flight probe was never canceled by Close")
		}
		time.Sleep(time.Millisecond)
	}
}
