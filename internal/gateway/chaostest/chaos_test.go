package chaostest

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"agcm/internal/gateway"
	"agcm/internal/server"
)

// bodyPool is the request mix for chaos storms: a handful of distinct
// configs so key reuse exercises caching and key-affinity while the
// backends stay fast.
func bodyPool() []string {
	var pool []string
	for _, px := range []int{1, 2, 4} {
		for _, steps := range []int{1, 2} {
			pool = append(pool, fmt.Sprintf(`{"config":{"nlon":36,"nlat":24,"nlayers":3,`+
				`"machine":"paragon","mesh_py":1,"mesh_px":%d,"filter":"fft"},"steps":%d}`, px, steps))
		}
	}
	return pool
}

// referenceBodies computes the ground-truth response for every pool entry
// against a clean, fault-free backend.  agcmd is bit-deterministic, so
// these bytes are THE answer a healthy cluster must produce.
func referenceBodies(t *testing.T, pool []string) map[string][]byte {
	t.Helper()
	s, err := server.New(server.Options{Workers: 2, QueueCapacity: 16, CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	refs := make(map[string][]byte, len(pool))
	for _, body := range pool {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("reference run: status %d err %v", resp.StatusCode, err)
		}
		refs[body] = raw
	}
	return refs
}

// TestTransparentProxyIsByteExact: an empty spec proxies responses
// untouched — the baseline the fault clauses perturb.
func TestTransparentProxyIsByteExact(t *testing.T) {
	s, err := server.New(server.Options{Workers: 1, QueueCapacity: 8, CacheEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	spec, _ := Parse("")
	p := NewProxy(spec, ts.URL)
	defer p.Close()

	body := bodyPool()[0]
	direct, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(direct.Body)
	direct.Body.Close()

	through, err := http.Post(p.URL()+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(through.Body)
	through.Body.Close()
	if through.StatusCode != 200 || string(got) != string(want) {
		t.Fatalf("proxied response differs: status %d\ngot  %q\nwant %q", through.StatusCode, got, want)
	}
	if len(p.InjectedKinds()) != 0 {
		t.Fatalf("transparent proxy injected faults: %v", p.InjectedKinds())
	}
}

// TestGatewayUnderChaos is the tentpole proof: three real agcmd backends,
// each behind a fault-injecting proxy with a different seeded misbehavior
// mix (5xx bursts, connection drops, mid-body resets, slow bodies, added
// latency), a gateway in front, and a concurrent request storm.  Every
// accepted (200) response must be byte-exact against the fault-free
// reference, no client-level error may escape the gateway, and the retry
// volume must stay under the token-bucket budget bound.
func TestGatewayUnderChaos(t *testing.T) {
	pool := bodyPool()
	refs := referenceBodies(t, pool)

	specs := []string{
		"seed=11;delay:prob=0.3,ms=3;burst5xx:every=12,len=2",
		"seed=22;reset:prob=0.12;slowbody:prob=0.25,chunk=48,ms=1",
		"seed=33;drop:prob=0.1;delay:prob=0.2,ms=2",
	}
	var proxies []*Proxy
	var backendURLs []string
	for i, raw := range specs {
		spec, err := Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		s, err := server.New(server.Options{
			Workers: 2, QueueCapacity: 32, CacheEntries: 64,
			BackendID: fmt.Sprintf("b%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		bts := httptest.NewServer(s.Handler())
		defer bts.Close()
		p := NewProxy(spec, bts.URL)
		defer p.Close()
		proxies = append(proxies, p)
		backendURLs = append(backendURLs, p.URL())
	}

	const (
		retryRatio = 0.5
		retryBurst = 50
	)
	g, err := gateway.New(gateway.Options{
		Backends:       backendURLs,
		Policy:         "key-affinity",
		ProbeInterval:  50 * time.Millisecond,
		FailThreshold:  3,
		OpenFor:        200 * time.Millisecond,
		RetryMax:       4,
		RetryRatio:     retryRatio,
		RetryBurst:     retryBurst,
		BackoffBase:    2 * time.Millisecond,
		BackoffCap:     20 * time.Millisecond,
		AttemptTimeout: 5 * time.Second,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	const (
		goroutines = 8
		perG       = 30
		total      = goroutines * perG
	)
	type result struct {
		body   string
		status int
		got    []byte
		err    error
	}
	results := make([]result, total)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := 0; i < perG; i++ {
				body := pool[(gi*31+i)%len(pool)]
				r := result{body: body}
				resp, err := client.Post(gw.URL+"/v1/run", "application/json", strings.NewReader(body))
				if err != nil {
					r.err = err
				} else {
					r.status = resp.StatusCode
					r.got, r.err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				results[gi*perG+i] = r
			}
		}(gi)
	}
	wg.Wait()

	ok200, saturated := 0, 0
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d: client-level error escaped the gateway: %v", i, r.err)
		}
		switch r.status {
		case 200:
			ok200++
			if string(r.got) != string(refs[r.body]) {
				t.Fatalf("request %d: accepted body is not byte-exact\ngot  %q\nwant %q", i, r.got, refs[r.body])
			}
		case 429, 503:
			saturated++
		default:
			t.Fatalf("request %d: status %d (body %q) — the gateway must mask chaos as 200/429/503", i, r.status, r.got)
		}
	}
	if ok200 < total*8/10 {
		t.Fatalf("only %d/%d requests succeeded under chaos (%d saturated)", ok200, total, saturated)
	}

	// Retry volume must respect the budget: ratio per accepted request plus
	// the burst the bucket started with.
	maxRetries := uint64(retryRatio*float64(total)) + retryBurst
	if got := g.Metrics().Retries.Get(); got > maxRetries {
		t.Fatalf("retries = %d, want <= %d (budget bound)", got, maxRetries)
	}

	// The scenario must actually have misbehaved — a chaos test against a
	// healthy cluster proves nothing.
	var injected uint64
	for i, p := range proxies {
		for _, k := range p.InjectedKinds() {
			injected += p.Injected(k)
		}
		t.Logf("proxy %d injected: %v", i, p.InjectedKinds())
	}
	if injected < 10 {
		t.Fatalf("only %d faults injected — chaos schedule did not engage", injected)
	}
	if proxies[0].Injected("burst5xx") == 0 {
		t.Fatal("burst5xx never fired despite a periodic window")
	}

	// The /metrics surface stays coherent under chaos.
	resp, err := http.Get(gw.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"agcmgw_requests_total", "agcmgw_backend_responses_total", "agcmgw_retry_budget_tokens"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
