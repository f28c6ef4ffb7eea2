package gateway

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// roundTripFunc is a fake backend transport: every request the gateway
// sends a backend — attempts, cache peeks, probes — goes through it.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// fakeResponse is a backend answer with the given status, header and body.
func fakeResponse(status int, h http.Header, body string) *http.Response {
	if h == nil {
		h = http.Header{}
	}
	return &http.Response{StatusCode: status, Header: h, Body: io.NopCloser(strings.NewReader(body))}
}

// TestAttemptOutcomeTable drives one request per outcome of a first attempt
// on backend a; anything retried goes to backend b, which answers 400 (a
// final answer that feeds no latency sample).  For each outcome it checks
// what the client got, the breaker's verdict, the cooldown and the latency
// ring.  The verdict is read off a breaker with threshold 2 that already
// holds one failure: a failure opens it at once; a success resets the count,
// so one more failure leaves it closed; a forgiven attempt leaves the count
// alone, so one more failure opens it.
func TestAttemptOutcomeTable(t *testing.T) {
	type verdict int
	const (
		success verdict = iota
		failure
		forgiven
	)
	const (
		relayed   = "relayed"
		retried   = "retried"
		abandoned = "abandoned" // the caller left: no retry, no answer
	)
	cases := []struct {
		name       string
		status     int    // a's answer; 0 with cancel false is a transport error
		retryAfter string // a's Retry-After
		cancel     bool   // the caller cancels during a's attempt
		fate       string
		verdict    verdict
		cooldown   bool
	}{
		{name: "200", status: 200, fate: relayed, verdict: success},
		{name: "400", status: 400, fate: relayed, verdict: success},
		{name: "413", status: 413, fate: relayed, verdict: success},
		{name: "429", status: 429, fate: retried, verdict: success, cooldown: true},
		{name: "429 Retry-After", status: 429, retryAfter: "60", fate: retried, verdict: success, cooldown: true},
		{name: "500", status: 500, fate: relayed, verdict: success},
		{name: "502", status: 502, fate: retried, verdict: failure},
		{name: "503", status: 503, fate: retried, verdict: failure},
		{name: "503 Retry-After", status: 503, retryAfter: "60", fate: retried, verdict: failure, cooldown: true},
		{name: "504", status: 504, fate: relayed, verdict: success},
		{name: "transport error", fate: retried, verdict: failure},
		{name: "caller cancel", cancel: true, fate: abandoned, verdict: forgiven},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			bCalls := 0
			tp := roundTripFunc(func(r *http.Request) (*http.Response, error) {
				switch {
				case r.URL.Path != "/v1/run":
					return fakeResponse(http.StatusNotFound, nil, "not cached\n"), nil
				case r.URL.Host == "b.test":
					bCalls++
					return fakeResponse(http.StatusBadRequest, nil, "from b\n"), nil
				case tc.cancel:
					cancel()
					<-r.Context().Done()
					return nil, r.Context().Err()
				case tc.status == 0:
					return nil, errors.New("connection refused")
				}
				h := http.Header{}
				if tc.retryAfter != "" {
					h.Set("Retry-After", tc.retryAfter)
				}
				return fakeResponse(tc.status, h, "from a\n"), nil
			})
			g, err := New(Options{
				Backends:      []string{"http://a.test", "http://b.test"},
				Policy:        "round-robin",
				ProbeInterval: -1,
				FailThreshold: 2,
				OpenFor:       time.Hour,
				BackoffBase:   time.Microsecond,
				Transport:     tp,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			a := g.backends[0]
			a.breaker.Record(false, false)

			req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(reqJSON(1, "fft", 1))).WithContext(ctx)
			rec := httptest.NewRecorder()
			g.Handler().ServeHTTP(rec, req)

			wantCode, wantAttempts, wantB := tc.status, "1", 0
			switch tc.fate {
			case retried:
				wantCode, wantAttempts, wantB = http.StatusBadRequest, "2", 1
			case abandoned:
				wantCode = http.StatusServiceUnavailable
			}
			if rec.Code != wantCode || rec.Header().Get("X-Agcmgw-Attempts") != wantAttempts || bCalls != wantB {
				t.Errorf("%s: client got %d after %s attempts, b called %d times; want %d, %s, %d",
					tc.fate, rec.Code, rec.Header().Get("X-Agcmgw-Attempts"), bCalls, wantCode, wantAttempts, wantB)
			}

			var wantErrors, wantCanceled uint64
			if tc.status == 0 && !tc.cancel {
				wantErrors = 1
			}
			if tc.cancel {
				wantCanceled = 1
			}
			if got := g.metrics.BackendErrors.Get(a.id); got != wantErrors {
				t.Errorf("transport errors = %d, want %d", got, wantErrors)
			}
			if got := g.metrics.BackendCanceled.Get(a.id); got != wantCanceled {
				t.Errorf("canceled attempts = %d, want %d", got, wantCanceled)
			}
			got := failure
			if a.breaker.State() == BreakerClosed {
				a.breaker.Record(false, false)
				got = success
				if a.breaker.State() == BreakerOpen {
					got = forgiven
				}
			}
			if got != tc.verdict {
				t.Errorf("breaker verdict %d, want %d (0 success, 1 failure, 2 forgiven)", got, tc.verdict)
			}

			if got := a.inCooldown(time.Now()); got != tc.cooldown {
				t.Errorf("cooldown set = %v, want %v", got, tc.cooldown)
			}
			wantSamples := 0
			if tc.status == http.StatusOK {
				wantSamples = 1
			}
			if g.lat.n != wantSamples {
				t.Errorf("latency samples = %d, want %d", g.lat.n, wantSamples)
			}
		})
	}
}

// TestLatencyRingP95 checks P95 against a sorted copy of the ring's live
// samples, before and after the ring wraps past its 128 slots, and that it
// sorts without allocating.
func TestLatencyRingP95(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var r latencyRing
	var seen []float64
	for i := 1; i <= 400; i++ {
		v := rng.ExpFloat64()
		r.Observe(v)
		seen = append(seen, v)
		want := 0.0
		if i >= 16 {
			live := slices.Clone(seen[max(0, i-len(r.samples)):])
			slices.Sort(live)
			want = live[int(0.95*float64(len(live)-1))]
		}
		if got := r.P95(); got != want {
			t.Fatalf("after %d samples: P95 %v, want %v", i, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { r.P95() }); allocs != 0 {
		t.Fatalf("P95 allocates %v times, want 0", allocs)
	}
}
