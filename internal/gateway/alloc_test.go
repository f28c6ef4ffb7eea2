package gateway

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"agcm/internal/server"
)

// hotRelayAllocBudget is the pinned allocation count of one cache-hit
// request through gateway → server, the client included: everything left is
// net/http's own (two servers reading a request, the client and the
// gateway's transport writing one and reading a response, per-attempt
// contexts), plus one Request per memo hit and one header-map entry per
// response.
const hotRelayAllocBudget = 184

// TestHotRelayAllocBudget runs an in-process gateway → server stack over a
// cache filled by one run and pins the allocations of a cache-hit request.
// Both daemons answer a hit from their memo of decoded bodies, read the body
// into a pooled buffer, and stamp headers from shared value slices.
func TestHotRelayAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state")
	}
	srv, err := server.New(server.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())
	backend := httptest.NewServer(srv.Handler())
	defer backend.Close()
	g, err := New(Options{Backends: []string{backend.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	tp := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tp.CloseIdleConnections()
	hc := &http.Client{Transport: tp}
	body := reqJSON(1, "fft", 1)
	var failed string
	post := func() {
		resp, err := hc.Post(front.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			failed = err.Error()
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			failed = resp.Status
		}
	}
	for i := 0; i < 20; i++ {
		post()
	}
	// The relay forwards the backend's own header values: a frame client
	// gets the frame's type, and the hit's disposition.
	req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", server.FrameContentType)
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if ct, cache, n := resp.Header.Get("Content-Type"), resp.Header.Get("X-Agcmd-Cache"), resp.Header.Get("X-Agcmgw-Attempts"); ct != server.FrameContentType || cache != "hit" || n != "1" {
		t.Fatalf("relayed headers: Content-Type %q, X-Agcmd-Cache %q, X-Agcmgw-Attempts %q", ct, cache, n)
	}
	allocs := testing.AllocsPerRun(500, post)
	if failed != "" {
		t.Fatalf("request failed: %s", failed)
	}
	if srv.Runs() != 1 {
		t.Fatalf("%d runs, want the one that filled the cache", srv.Runs())
	}
	// The gateway decoded the body into its own memo; a second gateway's
	// memo is empty, so no memo is shared between daemons.
	other, err := New(Options{Backends: []string{backend.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if g.memo.Len() != 1 || other.memo.Len() != 0 {
		t.Fatalf("memo sizes %d and %d, want 1 for the gateway that decoded and 0 for another", g.memo.Len(), other.memo.Len())
	}
	t.Logf("%v allocations per cache-hit request", allocs)
	if allocs > hotRelayAllocBudget {
		t.Fatalf("a cache-hit request allocates %v times, budget %d", allocs, hotRelayAllocBudget)
	}
}

// TestRetryAllocBudget pins the allocations of a request whose first attempt
// is answered 503, over a fake transport: "retry" gets a 200 on the retry,
// "degraded" a second 503 and then a 200 from the cache peek.  Every answer
// is about 600 bytes and read into a pooled buffer.  A masked answer is
// released when a later one supersedes it; one that is not drains the body
// pool, and every request then allocates a fresh buffer for it (4 more
// allocations).  What the budgets leave is the recorder, the request
// plumbing and each attempt's context, request, response and result.
func TestRetryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state")
	}
	answer := strings.Repeat("x", 600)
	for _, tc := range []struct {
		name     string
		runs     []int // the statuses /v1/run answers in turn
		degraded string
		budget   float64
	}{
		{"retry", []int{http.StatusServiceUnavailable, http.StatusOK}, "", 49},
		{"degraded", []int{http.StatusServiceUnavailable, http.StatusServiceUnavailable}, "1", 67},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			tp := roundTripFunc(func(r *http.Request) (*http.Response, error) {
				if r.URL.Path != "/v1/run" {
					return fakeResponse(http.StatusOK, nil, answer), nil
				}
				status := tc.runs[calls%len(tc.runs)]
				calls++
				return fakeResponse(status, nil, answer), nil
			})
			g, err := New(Options{
				Backends:      []string{"http://backend.test"},
				ProbeInterval: -1,
				FailThreshold: math.MaxInt, // the degraded case's 503s must not open the breaker
				RetryMax:      1,
				BackoffBase:   time.Microsecond,
				RetryRatio:    1,
				Transport:     tp,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			h := g.Handler()
			body := reqJSON(1, "fft", 1)
			req := httptest.NewRequest(http.MethodPost, "/v1/run", nil)
			var failed string
			post := func() {
				req.Body = io.NopCloser(strings.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				got := rec.Header()
				if rec.Code != http.StatusOK || rec.Body.Len() != len(answer) || got.Get("X-Agcmgw-Attempts") != "2" || got.Get("X-Agcmgw-Degraded") != tc.degraded {
					failed = fmt.Sprintf("status %d, %d bytes, %s attempts, degraded %q",
						rec.Code, rec.Body.Len(), got.Get("X-Agcmgw-Attempts"), got.Get("X-Agcmgw-Degraded"))
				}
			}
			post()
			allocs := testing.AllocsPerRun(500, post)
			if failed != "" {
				t.Fatalf("want a 200 of %d bytes after 2 attempts, degraded %q: %s", len(answer), tc.degraded, failed)
			}
			t.Logf("%v allocations per request", allocs)
			if allocs > tc.budget {
				t.Fatalf("a %s request allocates %v times, budget %v", tc.name, allocs, tc.budget)
			}
		})
	}
}
