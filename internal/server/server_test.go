package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"agcm/internal/core"
)

// mustNew builds a Server, failing the test on error (only opening the
// disk tier can fail).
func mustNew(t *testing.T, opt Options) *Server {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// reqJSON builds a /v1/run body for a small test simulation.
func reqJSON(mesh [2]int, filter string, steps int) string {
	return fmt.Sprintf(`{"config":{"nlon":36,"nlat":24,"nlayers":3,"machine":"paragon",`+
		`"mesh_py":%d,"mesh_px":%d,"filter":%q},"steps":%d}`,
		mesh[0], mesh[1], filter, steps)
}

func postRun(t *testing.T, url, body string) (int, http.Header, []byte) {
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

// stubReport fabricates a deterministic report from the config, for tests
// that control the runner.
func stubReport(cfg core.Config, steps int) *core.Report {
	return &core.Report{
		Ranks:       cfg.MeshPy * cfg.MeshPx,
		Steps:       steps,
		StepsPerDay: 100,
		Total:       float64(steps),
	}
}

// TestDeterministicResponsesAcrossInstances is the serving determinism
// proof: two independent daemon instances, each given the same 200-request
// mix in a different shuffled order with concurrent clients, must produce
// byte-identical response bodies for every request.
func TestDeterministicResponsesAcrossInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~24 real simulations")
	}
	// 12 distinct configs; 200 requests heavy with duplicates.
	var distinct []string
	for _, mesh := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
		for _, filter := range []string{"fft", "fft-load-balanced", "convolution-ring"} {
			distinct = append(distinct, reqJSON(mesh, filter, 1))
		}
	}
	const total = 200
	mix := make([]int, total)
	for i := range mix {
		mix[i] = i % len(distinct)
	}

	run := func(seed int64) map[int][]byte {
		s := mustNew(t, Options{Workers: 4, QueueCapacity: total})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer s.Drain(context.Background())

		order := append([]int(nil), mix...)
		rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) {
			order[i], order[j] = order[j], order[i]
		})
		bodies := make(map[int][]byte) // distinct-config index -> body
		var mu sync.Mutex
		var wg sync.WaitGroup
		sem := make(chan struct{}, 16)
		for _, which := range order {
			wg.Add(1)
			go func(which int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				status, _, body := postRun(t, ts.URL, distinct[which])
				if status != http.StatusOK {
					t.Errorf("config %d: status %d: %s", which, status, body)
					return
				}
				mu.Lock()
				defer mu.Unlock()
				if prev, ok := bodies[which]; ok {
					if !bytes.Equal(prev, body) {
						t.Errorf("config %d: two responses differ within one instance", which)
					}
					return
				}
				bodies[which] = body
			}(which)
		}
		wg.Wait()
		return bodies
	}

	a := run(1)
	b := run(2)
	for which := range distinct {
		ba, bb := a[which], b[which]
		if len(ba) == 0 || len(bb) == 0 {
			t.Fatalf("config %d missing a response", which)
		}
		if !bytes.Equal(ba, bb) {
			t.Errorf("config %d: bodies differ across instances:\n a: %s\n b: %s", which, ba, bb)
		}
	}
}

// TestCacheHitIdenticalBytesWithoutRerun: a repeated config must come back
// from the cache — identical bytes, no second simulation.
func TestCacheHitIdenticalBytesWithoutRerun(t *testing.T) {
	s := mustNew(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	body := reqJSON([2]int{1, 2}, "fft", 1)
	st1, h1, b1 := postRun(t, ts.URL, body)
	st2, h2, b2 := postRun(t, ts.URL, body)
	if st1 != 200 || st2 != 200 {
		t.Fatalf("statuses %d, %d: %s %s", st1, st2, b1, b2)
	}
	if got := h1.Get("X-Agcmd-Cache"); got != "miss" {
		t.Errorf("first request disposition %q, want miss", got)
	}
	if got := h2.Get("X-Agcmd-Cache"); got != "hit" {
		t.Errorf("second request disposition %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cache hit bytes differ:\n %s\n %s", b1, b2)
	}
	if runs := s.Runs(); runs != 1 {
		t.Fatalf("Runs() = %d, want 1 (hit must not re-run)", runs)
	}
}

// TestSingleFlightCoalesces: concurrent identical requests share one run.
func TestSingleFlightCoalesces(t *testing.T) {
	release := make(chan struct{})
	s := mustNew(t, Options{
		Workers:       4,
		QueueCapacity: 16,
		Runner: func(ctx context.Context, cfg core.Config, steps int) (*core.Report, error) {
			<-release
			return stubReport(cfg, steps), nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	const clients = 8
	body := reqJSON([2]int{2, 2}, "fft", 3)
	results := make(chan []byte, clients)
	for i := 0; i < clients; i++ {
		go func() {
			status, _, b := postRun(t, ts.URL, body)
			if status != 200 {
				t.Errorf("status %d: %s", status, b)
			}
			results <- b
		}()
	}
	// Wait until every client is registered on the flight, then let the
	// single run finish.
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.requests.Get("miss")+s.metrics.requests.Get("coalesced") < clients {
		if time.Now().After(deadline) {
			t.Fatal("clients did not all register in time")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	var first []byte
	for i := 0; i < clients; i++ {
		b := <-results
		if first == nil {
			first = b
		} else if !bytes.Equal(first, b) {
			t.Errorf("coalesced responses differ")
		}
	}
	if runs := s.Runs(); runs != 1 {
		t.Errorf("Runs() = %d, want 1", runs)
	}
	if miss, co := s.metrics.requests.Get("miss"), s.metrics.requests.Get("coalesced"); miss != 1 || co != clients-1 {
		t.Errorf("miss = %d, coalesced = %d; want 1, %d", miss, co, clients-1)
	}
}

// TestLoadShedding: with one worker and a one-slot queue, a third distinct
// request must be shed with 429 and a Retry-After hint.
func TestLoadShedding(t *testing.T) {
	release := make(chan struct{})
	s := mustNew(t, Options{
		Workers:       1,
		QueueCapacity: 1,
		Runner: func(ctx context.Context, cfg core.Config, steps int) (*core.Report, error) {
			<-release
			return stubReport(cfg, steps), nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())
	// Deferred after Drain, so it runs first: a failure below still lets
	// the running job finish and Drain return.
	var unblock sync.Once
	defer unblock.Do(func() { close(release) })

	done := make(chan struct{}, 2)
	post := func(i int, body string) {
		go func() {
			status, _, b := postRun(t, ts.URL, body)
			if status != 200 {
				t.Errorf("request %d: status %d: %s", i, status, b)
			}
			done <- struct{}{}
		}()
	}
	waitFor := func(inflight int64, depth int) {
		deadline := time.Now().Add(5 * time.Second)
		for !(s.inflight.Load() == inflight && s.queue.Depth() == depth) {
			if time.Now().After(deadline) {
				t.Fatalf("inflight=%d depth=%d, want %d and %d", s.inflight.Load(), s.queue.Depth(), inflight, depth)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// One job running, then one queued behind it: posted together, the
	// second could be shed before the worker took the first.
	post(0, reqJSON([2]int{1, 1}, "fft", 1))
	waitFor(1, 0)
	post(1, reqJSON([2]int{1, 2}, "fft", 1))
	waitFor(1, 1)
	status, header, body := postRun(t, ts.URL, reqJSON([2]int{2, 1}, "fft", 1))
	if status != http.StatusTooManyRequests {
		t.Fatalf("third request status %d, want 429: %s", status, body)
	}
	ra, err := strconv.Atoi(header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", header.Get("Retry-After"))
	}
	if shed := s.metrics.requests.Get("shed"); shed != 1 {
		t.Errorf("shed counter = %d, want 1", shed)
	}
	unblock.Do(func() { close(release) })
	<-done
	<-done
}

// getStatus fetches a path and returns the status code.
func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestDrain: SIGTERM semantics — accepted jobs (running and queued) finish
// and are answered, new requests are refused, Drain returns once idle.
// It also pins the drain sequence the gateway depends on: liveness
// (/healthz) stays 200 throughout while readiness (/readyz) flips to 503
// the moment draining begins, before accepted jobs have finished.
func TestDrain(t *testing.T) {
	release := make(chan struct{})
	s := mustNew(t, Options{
		Workers:       1,
		QueueCapacity: 4,
		Runner: func(ctx context.Context, cfg core.Config, steps int) (*core.Report, error) {
			<-release
			return stubReport(cfg, steps), nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	accepted := make(chan int, 2)
	for _, body := range []string{
		reqJSON([2]int{1, 1}, "fft", 1), // runs immediately
		reqJSON([2]int{1, 2}, "fft", 1), // waits in queue across the drain
	} {
		go func(body string) {
			status, _, _ := postRun(t, ts.URL, body)
			accepted <- status
		}(body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !(s.inflight.Load() == 1 && s.queue.Depth() == 1) {
		if time.Now().After(deadline) {
			t.Fatal("backlog never formed")
		}
		time.Sleep(time.Millisecond)
	}

	// Before draining: live and ready.
	if st := getStatus(t, ts.URL+"/healthz"); st != http.StatusOK {
		t.Fatalf("healthz before drain: %d, want 200", st)
	}
	if st := getStatus(t, ts.URL+"/readyz"); st != http.StatusOK {
		t.Fatalf("readyz before drain: %d, want 200", st)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	// Drain must flip the door immediately, while jobs are still pending.
	for s.draining.Load() == false {
		time.Sleep(time.Millisecond)
	}
	status, _, _ := postRun(t, ts.URL, reqJSON([2]int{2, 2}, "fft", 1))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503", status)
	}
	// While accepted jobs are still pending the process is alive (liveness
	// 200) but must already advertise not-ready (readiness 503), so the
	// gateway stops routing here before the drain completes.
	if st := getStatus(t, ts.URL+"/healthz"); st != http.StatusOK {
		t.Fatalf("healthz during drain: %d, want 200 (liveness is not readiness)", st)
	}
	if st := getStatus(t, ts.URL+"/readyz"); st != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", st)
	}

	close(release) // let the accepted jobs finish
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i := 0; i < 2; i++ {
		if status := <-accepted; status != 200 {
			t.Errorf("accepted job answered %d, want 200", status)
		}
	}
}

// TestDrainTimeout: a drain that cannot finish reports the context error.
func TestDrainTimeout(t *testing.T) {
	release := make(chan struct{})
	s := mustNew(t, Options{
		Workers: 1,
		Runner: func(ctx context.Context, cfg core.Config, steps int) (*core.Report, error) {
			<-release
			return stubReport(cfg, steps), nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Unblock the worker before ts.Close (LIFO) so the outstanding client
	// request can finish and Close does not hang.
	defer close(release)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json",
			strings.NewReader(reqJSON([2]int{1, 1}, "fft", 1)))
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain of a stuck worker returned nil")
	}
}

// parseMetrics reads the Prometheus text format into name{labels} -> value.
func parseMetrics(t *testing.T, raw string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(raw, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable metrics value in %q", line)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsReconcile drives a known request mix and checks /metrics
// agrees with the client-side tallies exactly.
func TestMetricsReconcile(t *testing.T) {
	gate := make(chan struct{}, 1024)
	blocking := false
	var mu sync.Mutex
	s := mustNew(t, Options{
		Workers:       1,
		QueueCapacity: 1,
		Runner: func(ctx context.Context, cfg core.Config, steps int) (*core.Report, error) {
			mu.Lock()
			b := blocking
			mu.Unlock()
			if b {
				<-gate
			}
			return stubReport(cfg, steps), nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	meshes := [][2]int{{1, 1}, {1, 2}, {2, 1}}
	// Phase 1: three distinct configs, sequential -> 3 misses, 3 runs.
	for _, m := range meshes {
		if st, _, b := postRun(t, ts.URL, reqJSON(m, "fft", 1)); st != 200 {
			t.Fatalf("miss phase: %d %s", st, b)
		}
	}
	// Phase 2: the same three again -> 3 hits.
	for _, m := range meshes {
		if st, _, b := postRun(t, ts.URL, reqJSON(m, "fft", 1)); st != 200 {
			t.Fatalf("hit phase: %d %s", st, b)
		}
	}
	// Phase 3: four concurrent identical new requests -> 1 miss + 3
	// coalesced, one more run.
	mu.Lock()
	blocking = true
	mu.Unlock()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if st, _, b := postRun(t, ts.URL, reqJSON([2]int{2, 2}, "fft", 1)); st != 200 {
				t.Errorf("coalesce phase: %d %s", st, b)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.requests.Get("miss")+s.metrics.requests.Get("coalesced") < 4+3 {
		if time.Now().After(deadline) {
			t.Fatal("coalesce phase never registered")
		}
		time.Sleep(time.Millisecond)
	}
	// Phase 4: with the worker blocked, a distinct request fills the queue
	// slot (issued in the background — it only completes once the gate
	// opens) and one more is shed.
	queued := make(chan struct{})
	go func() {
		postRun(t, ts.URL, reqJSON([2]int{1, 3}, "fft", 1))
		close(queued)
	}()
	for s.queue.Depth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue slot never filled")
		}
		time.Sleep(time.Millisecond)
	}
	st, _, _ := postRun(t, ts.URL, reqJSON([2]int{3, 2}, "fft", 1))
	if st != http.StatusTooManyRequests {
		t.Fatalf("shed phase: status %d, want 429", st)
	}
	// Release everything and let it settle.
	for i := 0; i < 16; i++ {
		gate <- struct{}{}
	}
	wg.Wait()
	<-queued

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	m := parseMetrics(t, string(raw))

	want := map[string]float64{
		`agcmd_requests_total{result="hit"}`:       3,
		`agcmd_requests_total{result="miss"}`:      5, // 3 + coalesce leader + queued
		`agcmd_requests_total{result="coalesced"}`: 3,
		`agcmd_requests_total{result="shed"}`:      1,
		`agcmd_runs_total`:                         5, // == misses: every miss ran exactly once
		`agcmd_run_errors_total`:                   0,
		`agcmd_queue_depth`:                        0,
		`agcmd_inflight_jobs`:                      0,
		`agcmd_cache_entries`:                      5,
		`agcmd_job_seconds_count`:                  5,
	}
	for k, v := range want {
		if got, ok := m[k]; !ok || got != v {
			t.Errorf("%s = %v, want %v\nfull metrics:\n%s", k, m[k], v, raw)
		}
	}
	if int64(m[`agcmd_runs_total`]) != s.Runs() {
		t.Errorf("runs_total %v != Runs() %d", m[`agcmd_runs_total`], s.Runs())
	}
}

// TestMetricsDeterministicEmission: two scrapes of the same state must be
// byte-identical (sorted labels, fixed family order).
func TestMetricsDeterministicEmission(t *testing.T) {
	m := newMetrics(fixedProbes(fixedDisk()))
	for _, r := range []string{"miss", "hit", "shed", "coalesced", "rejected", "hit"} {
		m.requests.Inc(r)
	}
	m.runs.Inc()
	m.observeJob(Batch, 0, 0.003)
	m.observeJob(Batch, 0, 7)
	m.observeJob(Interactive, 0, 1e6) // beyond the last bound: +Inf bucket only
	var a, b bytes.Buffer
	m.reg.WriteText(&a)
	m.reg.WriteText(&b)
	if a.String() != b.String() {
		t.Fatal("two scrapes of identical state differ")
	}
	for _, want := range []string{
		`agcmd_requests_total{result="hit"} 2`,
		`agcmd_job_seconds_bucket{le="0.005"} 1`,
		`agcmd_job_seconds_bucket{le="+Inf"} 3`,
		`agcmd_job_seconds_count 3`,
		`agcmd_draining 1`,
	} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, a.String())
		}
	}
}

// TestBadRequests: malformed requests are rejected with 400 and counted.
func TestBadRequests(t *testing.T) {
	s := mustNew(t, Options{Workers: 1, MaxSteps: 10})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	cases := []string{
		`{`,           // syntax
		`{"steps":1}`, // missing config
		`{"config":{"machine":"paragon","nlon":36,"nlat":24,"nlayers":3,"mesh_py":1,"mesh_px":1},"stepz":1}`,           // unknown request field
		`{"config":{"machine":"paragon","nlon":36,"nlat":24,"nlayers":3,"mesh_py":1,"mesh_px":1,"fliter":"fft"}}`,      // unknown config field
		`{"config":{"machine":"paragon","nlon":36,"nlat":24,"nlayers":3,"mesh_py":1,"mesh_px":1},"steps":-1}`,          // bad steps
		`{"config":{"machine":"paragon","nlon":36,"nlat":24,"nlayers":3,"mesh_py":1,"mesh_px":1},"steps":99}`,          // above MaxSteps
		`{"config":{"machine":"paragon","nlon":36,"nlat":24,"nlayers":3,"mesh_py":1,"mesh_px":1},"priority":"high"}`,   // the retired field is an unknown field
		`{"config":{"machine":"nocomputer","nlon":36,"nlat":24,"nlayers":3,"mesh_py":1,"mesh_px":1}}`,                  // bad machine
		`{"config":{"machine":"paragon","nlon":36,"nlat":24,"nlayers":3,"mesh_py":1,"mesh_px":1},"slo":"bulk"}`,        // bad slo class
		`{"config":{"machine":"paragon","nlon":36,"nlat":24,"nlayers":3,"mesh_py":1,"mesh_px":1,"physics_rounds":9}}`,  // rounds past physics.MaxRounds
		`{"config":{"machine":"paragon","nlon":36,"nlat":24,"nlayers":3,"mesh_py":1,"mesh_px":1,"physics_rounds":-1}}`, // negative rounds
	}
	for i, c := range cases {
		if st, _, b := postRun(t, ts.URL, c); st != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400: %s", i, st, b)
		}
	}
	if got := s.metrics.requests.Get("rejected"); got != uint64(len(cases)) {
		t.Errorf("rejected = %d, want %d", got, len(cases))
	}
	if s.Runs() != 0 {
		t.Errorf("bad requests must not run simulations")
	}
}

// TestOverflowingTopologyFailsPromptly: topology extents whose product wraps
// around int to the rank count (274177 * 67280421310721 = 2^64 + 1 on a
// one-rank mesh) are refused before any network is built.  The request
// gets a prompt error, and the one worker is free for the next job.
func TestOverflowingTopologyFailsPromptly(t *testing.T) {
	s := mustNew(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())
	client := &http.Client{Timeout: 20 * time.Second}
	post := func(body string) (int, []byte) {
		resp, err := client.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}

	for _, topo := range []string{"mesh:274177x67280421310721", "torus:274177x67280421310721x1"} {
		body := `{"config":{"nlon":36,"nlat":24,"nlayers":3,"machine":"paragon",` +
			`"mesh_py":1,"mesh_px":1,"filter":"fft","topology":"` + topo + `"},"steps":1}`
		if st, b := post(body); st == http.StatusOK || !strings.Contains(string(b), "does not have 1 nodes") {
			t.Fatalf("%s: status %d, want the extent error: %s", topo, st, b)
		}
	}
	if st, b := post(reqJSON([2]int{1, 1}, "fft", 1)); st != http.StatusOK {
		t.Fatalf("next job: status %d: %s", st, b)
	}
}

// TestOverflowingGridIsBadRequest: a grid whose point count overflows int
// (2^32 x 2^32 x 1 wraps to 0 points) is refused by DecodeRequest, so the
// server answers 400 without running anything.
func TestOverflowingGridIsBadRequest(t *testing.T) {
	body := `{"config":{"nlon":4294967296,"nlat":4294967296,"nlayers":1,"machine":"paragon",` +
		`"mesh_py":1,"mesh_px":1,"filter":"fft"}}`
	if req, err := DecodeRequest(strings.NewReader(body), http.Header{}); err == nil {
		t.Fatalf("DecodeRequest accepted a grid of %d points", req.Config.Spec.Points())
	}
	s := mustNew(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())
	if st, _, b := postRun(t, ts.URL, body); st != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", st, b)
	}
	if s.Runs() != 0 {
		t.Error("a refused request ran a simulation")
	}
}

// TestCachePeekAndBackendID: GET /v1/cache/{key} replays a cached body
// without running anything, responses carry the configured backend ID, and
// the peek path keeps answering during a drain (the gateway's degraded-mode
// dependency).
func TestCachePeekAndBackendID(t *testing.T) {
	s := mustNew(t, Options{Workers: 1, BackendID: "b7"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := reqJSON([2]int{1, 2}, "fft", 1)
	st, h, b := postRun(t, ts.URL, body)
	if st != 200 {
		t.Fatalf("run status %d: %s", st, b)
	}
	if got := h.Get("X-Agcmd-Backend"); got != "b7" {
		t.Fatalf("X-Agcmd-Backend = %q, want b7", got)
	}
	var parsed struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(b, &parsed); err != nil || parsed.Key == "" {
		t.Fatalf("response has no key: %v", err)
	}

	peek := func(key string) (int, http.Header, []byte) {
		resp, err := http.Get(ts.URL + "/v1/cache/" + key)
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

	st2, h2, b2 := peek(parsed.Key)
	if st2 != 200 {
		t.Fatalf("peek status %d: %s", st2, b2)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("peek bytes differ from the original response")
	}
	if got := h2.Get("X-Agcmd-Cache"); got != "peek" {
		t.Errorf("peek disposition %q, want peek", got)
	}
	if st3, _, _ := peek(strings.Repeat("0", 64)); st3 != http.StatusNotFound {
		t.Errorf("peek of uncached key: status %d, want 404", st3)
	}
	if runs := s.Runs(); runs != 1 {
		t.Errorf("Runs() = %d, want 1 (peek must not run)", runs)
	}

	// Peek keeps working during (and after) a drain.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	st4, _, b4 := peek(parsed.Key)
	if st4 != 200 || !bytes.Equal(b, b4) {
		t.Errorf("peek during drain: status %d (want 200, identical bytes)", st4)
	}
}

// TestJobTimeout: a run exceeding its budget returns 504 and counts as a
// run error; the failure is not cached, so a retry runs again.
func TestJobTimeout(t *testing.T) {
	s := mustNew(t, Options{
		Workers:    1,
		JobTimeout: 10 * time.Millisecond,
		Runner: func(ctx context.Context, cfg core.Config, steps int) (*core.Report, error) {
			return core.RunContext(ctx, cfg, steps)
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	// Far more steps than 10ms allows.
	body := fmt.Sprintf(`{"config":{"nlon":36,"nlat":24,"nlayers":3,"machine":"paragon",`+
		`"mesh_py":2,"mesh_px":2,"filter":"fft"},"steps":%d}`, 100000)
	st, _, b := postRun(t, ts.URL, body)
	if st != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", st, b)
	}
	if errs := s.metrics.requests.Get("miss"); errs != 1 {
		t.Errorf("miss = %d, want 1", errs)
	}
	st2, _, _ := postRun(t, ts.URL, body)
	if st2 != http.StatusGatewayTimeout {
		t.Fatalf("retry status %d, want 504", st2)
	}
	if runs := s.Runs(); runs != 2 {
		t.Errorf("Runs() = %d, want 2 (errors are not cached)", runs)
	}
}
