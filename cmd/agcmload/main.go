// Command agcmload is the load generator and correctness prober for agcmd
// and the agcmgw gateway.  It has two front ends over one measurement core:
//
//   - the legacy mix (default): a seeded, reproducible request mix with
//     configurable concurrency, duplicate ratio, and optional Zipf-skewed
//     key reuse (internal/workload's Sequence and PoolBody),
//   - the workload engine (-spec spec.json): a declarative workload —
//     arrival process, diurnal modulation, SLO class mix, Zipf config
//     popularity — generated deterministically and dispatched open-loop at
//     its virtual arrival times (compressed by -timescale).  -record writes
//     the generated schedule as a trace; -replay dispatches a recorded
//     trace byte-for-byte; -dump-spec prints the canonicalized spec.
//
// Either way it verifies the serving layer's core promise while measuring:
//
//   - every 200 response for a given job key is byte-identical (the cache,
//     single-flight, and — through the gateway — retry/hedge/degraded
//     layers may never change what a config returns),
//   - the daemon's /metrics deltas reconcile with the client-side tallies.
//
// Against agcmd (-target agcmd, the default) reconciliation is exact:
// hits, misses, coalesced, shed, and runs == misses.  Against a gateway
// (-target gateway, with -backends naming the agcmd members) it checks the
// cluster ledger: the gateway's client-edge counters must match the
// client's view exactly, and each backend's own served count may exceed
// the gateway's received count only by the attempts the gateway abandoned
// (hedge losers, timeouts) or lost in transport.
//
// 429 responses carry Retry-After; -retry429 makes the client honor it
// (sleep, then reissue the same request) instead of just recording the
// shed.  Every response, including retried ones, is tallied so the ledgers
// still balance.
//
// It emits a JSON report (throughput, p50/p99 latency, cache hit ratio, and
// in gateway mode the retry/hedge/breaker ledger) and exits nonzero on any
// inconsistency, so it doubles as the CI smoke test.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"agcm/internal/server"
	"agcm/internal/workload"
)

// tally is the client-side view of the run, reconciled against /metrics.
type tally struct {
	mu         sync.Mutex
	byStatus   map[int]int
	byCache    map[string]int // X-Agcmd-Cache header on 200s
	bodyHash   map[string][32]byte
	latencies  []float64 // seconds, 200s only
	mismatches []string
	retried429 int
	// Per-SLO-class ledger (spec mode): issued counts every HTTP issue,
	// reissues included, mirroring the server's validated-request counter;
	// latencies holds 200s only.
	classIssued    map[string]int
	classLatencies map[string][]float64
}

func newTally() *tally {
	return &tally{
		byStatus:       make(map[int]int),
		byCache:        make(map[string]int),
		bodyHash:       make(map[string][32]byte),
		classIssued:    make(map[string]int),
		classLatencies: make(map[string][]float64),
	}
}

func (t *tally) record(class string, status int, cacheHeader string, key string, body []byte, elapsed time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byStatus[status]++
	t.classIssued[class]++
	if status != http.StatusOK {
		return
	}
	t.byCache[cacheHeader]++
	t.latencies = append(t.latencies, elapsed.Seconds())
	t.classLatencies[class] = append(t.classLatencies[class], elapsed.Seconds())
	h := sha256.Sum256(body)
	if prev, ok := t.bodyHash[key]; ok {
		if prev != h {
			t.mismatches = append(t.mismatches,
				fmt.Sprintf("key %s: response bytes changed between requests", key))
		}
		return
	}
	t.bodyHash[key] = h
}

// responseSetSHA256 hashes the run's key→body-hash set in sorted order: two
// runs that produced the same bytes for the same keys hash identically, no
// matter the interleaving — the replay-determinism fingerprint.
func (t *tally) responseSetSHA256() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]string, 0, len(t.bodyHash))
	for k := range t.bodyHash {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		bh := t.bodyHash[k]
		fmt.Fprintf(h, "%s %x\n", k, bh)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func (t *tally) noteRetry429() {
	t.mu.Lock()
	t.retried429++
	t.mu.Unlock()
}

// issuer issues one request (plus its 429 reissues) and records the outcome;
// both the legacy worker pool and the open-loop dispatcher run through it.
type issuer struct {
	addr      string
	wantFrame bool
	retry429  int
	t         *tally
}

func (c *issuer) issue(i int, class, body string) {
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		req, err := http.NewRequest(http.MethodPost, c.addr+"/v1/run", strings.NewReader(body))
		if err != nil {
			log.Fatalf("agcmload: request %d: %v", i, err)
		}
		req.Header.Set("Content-Type", "application/json")
		if c.wantFrame {
			req.Header.Set("Accept", server.FrameContentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			log.Fatalf("agcmload: request %d: %v", i, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			log.Fatalf("agcmload: reading response %d: %v", i, err)
		}
		elapsed := time.Since(t0)
		key := ""
		if resp.StatusCode == http.StatusOK {
			// In frame mode the byte-identity hash covers the raw frame; the
			// key is parsed from the embedded JSON section, which every valid
			// frame must carry.
			jsonBody := raw
			if c.wantFrame {
				if ct := resp.Header.Get("Content-Type"); ct != server.FrameContentType {
					log.Fatalf("agcmload: response %d content-type %q, want %q", i, ct, server.FrameContentType)
				}
				if jsonBody, err = server.JSONBody(raw); err != nil {
					log.Fatalf("agcmload: response %d is not a valid frame: %v", i, err)
				}
			}
			var parsed struct {
				Key string `json:"key"`
			}
			if err := json.Unmarshal(jsonBody, &parsed); err != nil || parsed.Key == "" {
				log.Fatalf("agcmload: response %d has no key: %v", i, err)
			}
			key = parsed.Key
		}
		c.t.record(class, resp.StatusCode, resp.Header.Get("X-Agcmd-Cache"), key, raw, elapsed)
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= c.retry429 {
			return
		}
		// Honor the server's own backpressure estimate before reissuing; the
		// shed above is already tallied, so the ledgers still balance.
		c.t.noteRetry429()
		time.Sleep(retryAfterSeconds(resp.Header))
	}
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// scrapeMetrics fetches /metrics and returns the counter samples whose
// family carries the given prefix ("agcmd_" or "agcmgw_").
func scrapeMetrics(addr, prefix string) (map[string]float64, error) {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad metrics line %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// deltaSum sums (after − before) over every sample whose name starts with
// prefix, skipping samples whose name contains any exclude substring.
// Iteration order is irrelevant: addition commutes.
func deltaSum(before, after map[string]float64, prefix string, exclude ...string) float64 {
	var s float64
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		skip := false
		for _, e := range exclude {
			if strings.Contains(k, e) {
				skip = true
				break
			}
		}
		if !skip {
			s += v - before[k]
		}
	}
	return s
}

// retryAfterSeconds parses a Retry-After header, defaulting and capping so
// a misbehaving server cannot park the client forever.
func retryAfterSeconds(h http.Header) time.Duration {
	secs := 1
	if v := h.Get("Retry-After"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			secs = n
		}
	}
	if secs > 5 {
		secs = 5
	}
	return time.Duration(secs) * time.Second
}

// backendRecon is one backend's side of the cluster ledger.
type backendRecon struct {
	// Served is the backend's own /v1/run disposition count (its
	// agcmd_requests_total delta, cache peeks excluded).
	Served float64 `json:"served"`
	// GatewayReceived is how many responses the gateway fully read from it.
	GatewayReceived float64 `json:"gateway_received"`
	// Canceled and TransportErrors bound the allowed gap: an abandoned or
	// transport-failed attempt may have been served without being received.
	Canceled        float64 `json:"canceled"`
	TransportErrors float64 `json:"transport_errors"`
	// Restarted marks a backend whose counters regressed mid-run (the
	// process died and came back): its ledger is unverifiable for this
	// window and is skipped when -allow-restart is set.
	Restarted bool `json:"restarted,omitempty"`
}

// gatewayStats is the gateway-mode section of the report.
type gatewayStats struct {
	Policy             string                  `json:"policy"`
	Retries            float64                 `json:"retries"`
	RetryExhausted     float64                 `json:"retry_exhausted"`
	HedgesLaunched     float64                 `json:"hedges_launched"`
	HedgesWon          float64                 `json:"hedges_won"`
	HedgesLost         float64                 `json:"hedges_lost"`
	Degraded           float64                 `json:"degraded"`
	BreakerTransitions float64                 `json:"breaker_transitions"`
	PerBackend         map[string]backendRecon `json:"per_backend"`
}

// classLatency is one SLO class's client-side view in spec mode.
type classLatency struct {
	Issued int     `json:"issued"` // HTTP issues, reissues included
	OK     int     `json:"ok"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// specStats is the workload-engine section of the report.
type specStats struct {
	Name string `json:"name"`
	// SpecSHA256 addresses the canonical spec; ScheduleSHA256 addresses the
	// generated (or replayed) trace bytes — same spec, same schedule hash.
	SpecSHA256     string `json:"spec_sha256"`
	ScheduleSHA256 string `json:"schedule_sha256"`
	Timescale      float64 `json:"timescale"`
	Replayed       bool    `json:"replayed,omitempty"`
	// ResponseSetSHA256 fingerprints the key→body-hash set: two replays of
	// the same trace against fresh daemons must produce the same value.
	ResponseSetSHA256 string                  `json:"response_set_sha256"`
	PerClass          map[string]classLatency `json:"per_class"`
}

// benchReport is the JSON document -out receives.
type benchReport struct {
	Note          string         `json:"note"`
	Target        string         `json:"target"`
	Requests      int            `json:"requests"`
	Concurrency   int            `json:"concurrency"`
	DupRatio      float64        `json:"dup_ratio"`
	Zipf          float64        `json:"zipf,omitempty"`
	Steps         int            `json:"steps"`
	Seed          int64          `json:"seed"`
	Accept        string         `json:"accept,omitempty"`
	DurationS     float64        `json:"duration_s"`
	ThroughputRPS float64        `json:"throughput_rps"`
	P50Ms         float64        `json:"p50_ms"`
	P99Ms         float64        `json:"p99_ms"`
	HitRatio      float64        `json:"hit_ratio"`
	Dispositions  map[string]int `json:"dispositions"`
	StatusCounts  map[string]int `json:"status_counts"`
	DistinctKeys  int            `json:"distinct_keys"`
	Retried429    int            `json:"retried_429"`
	RunsDelta     float64        `json:"server_runs_delta"`
	Reconciled    bool           `json:"metrics_reconciled"`
	Gateway       *gatewayStats  `json:"gateway,omitempty"`
	Spec          *specStats     `json:"spec,omitempty"`
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "agcmd or agcmgw base URL")
	target := flag.String("target", "agcmd", `what -addr points at: "agcmd" (exact cache reconciliation) or "gateway" (cluster ledger reconciliation)`)
	backendsFlag := flag.String("backends", "", "comma-separated agcmd base URLs behind the gateway (gateway mode)")
	policy := flag.String("policy", "", "routing policy label recorded in the report (gateway mode)")
	requests := flag.Int("requests", 200, "number of requests to issue")
	duration := flag.Duration("duration", 0, "optional wall-clock cutoff (0 = run the full request count)")
	concurrency := flag.Int("concurrency", 8, "concurrent client connections")
	dup := flag.Float64("dup", 0.5, "fraction of requests repeating an already-issued config")
	zipf := flag.Float64("zipf", 0, "Zipf exponent for repeated-config draws (> 1 skews reuse toward hot keys; 0 = uniform)")
	steps := flag.Int("steps", 1, "measured steps per simulation request")
	seed := flag.Int64("seed", 1, "mix seed (same seed, same request mix)")
	retry429 := flag.Int("retry429", 0, "times to honor a 429's Retry-After and reissue the request (0 = record the shed and move on)")
	allowRestart := flag.Bool("allow-restart", false, "tolerate backend counter resets (a member was killed and restarted mid-run); its per-backend ledger is skipped, everything else still reconciles")
	accept := flag.String("accept", "json", `response encoding to request: "json" or "frame" (sends Accept: application/x-agcm-frame; every 200 must be a well-formed frame whose embedded JSON section carries the key)`)
	out := flag.String("out", "-", "report path ('-' for stdout)")
	specPath := flag.String("spec", "", "workload spec JSON: generate and dispatch its schedule instead of the legacy mix")
	replayPath := flag.String("replay", "", "recorded trace: dispatch its requests byte-for-byte instead of generating")
	recordPath := flag.String("record", "", "write the dispatched schedule as a replayable trace before running")
	dumpSpec := flag.Bool("dump-spec", false, "print the canonicalized spec (requires -spec or -replay) and exit")
	timescale := flag.Float64("timescale", 1, "virtual-to-wall time compression for -spec/-replay pacing (2 = dispatch twice as fast)")
	flag.Parse()

	if *target != "agcmd" && *target != "gateway" {
		log.Fatalf("agcmload: unknown -target %q (want agcmd or gateway)", *target)
	}
	if *accept != "json" && *accept != "frame" {
		log.Fatalf("agcmload: unknown -accept %q (want json or frame)", *accept)
	}
	if *specPath != "" && *replayPath != "" {
		log.Fatal("agcmload: -spec and -replay are mutually exclusive")
	}
	if *timescale <= 0 {
		log.Fatalf("agcmload: -timescale %g out of range (must be > 0)", *timescale)
	}

	// Workload-engine mode: load the schedule before touching the network so
	// a bad spec or trace fails fast.
	var sched *workload.Schedule
	replayed := false
	switch {
	case *replayPath != "":
		f, err := os.Open(*replayPath)
		if err != nil {
			log.Fatalf("agcmload: %v", err)
		}
		if sched, err = workload.ReadTrace(f); err != nil {
			log.Fatalf("agcmload: reading trace %s: %v", *replayPath, err)
		}
		f.Close()
		replayed = true
	case *specPath != "":
		raw, err := os.ReadFile(*specPath)
		if err != nil {
			log.Fatalf("agcmload: %v", err)
		}
		spec, err := workload.ParseSpec(raw)
		if err != nil {
			log.Fatalf("agcmload: parsing spec %s: %v", *specPath, err)
		}
		if sched, err = workload.Generate(spec); err != nil {
			log.Fatalf("agcmload: generating schedule: %v", err)
		}
	}
	if *dumpSpec {
		if sched == nil {
			log.Fatal("agcmload: -dump-spec needs -spec or -replay")
		}
		canonical, err := sched.Spec.CanonicalJSON()
		if err != nil {
			log.Fatalf("agcmload: %v", err)
		}
		os.Stdout.Write(append(canonical, '\n'))
		return
	}
	if *recordPath != "" {
		if sched == nil {
			log.Fatal("agcmload: -record needs -spec or -replay")
		}
		f, err := os.Create(*recordPath)
		if err != nil {
			log.Fatalf("agcmload: %v", err)
		}
		if err := workload.WriteTrace(f, sched); err != nil {
			log.Fatalf("agcmload: writing trace %s: %v", *recordPath, err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("agcmload: closing trace %s: %v", *recordPath, err)
		}
	}
	wantFrame := *accept == "frame"
	var backends []string
	if *target == "gateway" {
		for _, b := range strings.Split(*backendsFlag, ",") {
			if b = strings.TrimSpace(b); b != "" {
				backends = append(backends, strings.TrimRight(b, "/"))
			}
		}
		if len(backends) == 0 {
			log.Fatal("agcmload: gateway mode needs -backends")
		}
	}
	prefix := "agcmd_"
	if *target == "gateway" {
		prefix = "agcmgw_"
	}

	before, err := scrapeMetrics(*addr, prefix)
	if err != nil {
		log.Fatalf("agcmload: initial metrics scrape: %v", err)
	}
	beforeBackends := make([]map[string]float64, len(backends))
	for i, b := range backends {
		if beforeBackends[i], err = scrapeMetrics(b, "agcmd_"); err != nil {
			log.Fatalf("agcmload: initial backend scrape %s: %v", b, err)
		}
	}

	t := newTally()
	is := &issuer{addr: *addr, wantFrame: wantFrame, retry429: *retry429, t: t}
	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}
	start := time.Now()
	if sched != nil {
		// Open-loop dispatch: one goroutine per request, launched at its
		// virtual arrival time compressed by -timescale.  The dispatcher
		// sleeps between launches (arrival times are non-decreasing), so a
		// slow server cannot slow the arrival process down — that is the
		// point of open-loop load.
		var wg sync.WaitGroup
		for _, r := range sched.Requests {
			at := time.Duration(float64(r.AtUS) / *timescale * float64(time.Microsecond))
			if d := time.Until(start.Add(at)); d > 0 {
				time.Sleep(d)
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				break
			}
			wg.Add(1)
			go func(r workload.Request) {
				defer wg.Done()
				is.issue(r.Seq, r.Class, r.Body)
			}(r)
		}
		wg.Wait()
	} else {
		seq := workload.Sequence(*requests, *dup, *zipf, *seed)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < *concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(seq) {
						return
					}
					if !deadline.IsZero() && time.Now().After(deadline) {
						return
					}
					// Legacy bodies carry no slo field, so the server classes
					// every one of them batch.
					is.issue(i, "batch", workload.PoolBody(seq[i], *steps))
				}
			}()
		}
		wg.Wait()
	}
	elapsed := time.Since(start)

	after, err := scrapeMetrics(*addr, prefix)
	if err != nil {
		log.Fatalf("agcmload: final metrics scrape: %v", err)
	}
	afterBackends := make([]map[string]float64, len(backends))
	for i, b := range backends {
		if afterBackends[i], err = scrapeMetrics(b, "agcmd_"); err != nil {
			log.Fatalf("agcmload: final backend scrape %s: %v", b, err)
		}
	}
	delta := func(name string) float64 { return after[name] - before[name] }

	// Reconcile: the daemon's counters must agree with what this client
	// observed (it assumes it is the only client meanwhile).
	failures := append([]string(nil), t.mismatches...)
	reconcile := func(metric string, observed int) {
		if got := delta(metric); got != float64(observed) {
			failures = append(failures,
				fmt.Sprintf("%s advanced by %g, client observed %d", metric, got, observed))
		}
	}

	var gwStats *gatewayStats
	var runsDelta float64
	if *target == "agcmd" {
		reconcile(`agcmd_requests_total{result="hit"}`, t.byCache["hit"])
		reconcile(`agcmd_requests_total{result="miss"}`, t.byCache["miss"])
		reconcile(`agcmd_requests_total{result="coalesced"}`, t.byCache["coalesced"])
		reconcile(`agcmd_requests_total{result="shed"}`, t.byStatus[http.StatusTooManyRequests])
		reconcile(`agcmd_runs_total`, t.byCache["miss"]) // every miss runs exactly once
		runsDelta = delta("agcmd_runs_total")
	} else {
		// Client edge: the gateway's outcome counters must match the client's
		// status tallies exactly — nothing accepted may go unaccounted.
		ok200 := t.byStatus[http.StatusOK]
		shed, errs, rejected := 0, 0, 0
		for status, n := range t.byStatus {
			switch {
			case status == http.StatusTooManyRequests ||
				status == http.StatusBadGateway || status == http.StatusServiceUnavailable:
				shed += n
			case status >= 500:
				errs += n
			case status >= 400:
				rejected += n
			}
		}
		okDelta := delta(`agcmgw_requests_total{result="ok"}`) + delta(`agcmgw_requests_total{result="degraded"}`)
		if okDelta != float64(ok200) {
			failures = append(failures, fmt.Sprintf("gateway ok+degraded advanced by %g, client saw %d 200s", okDelta, ok200))
		}
		reconcile(`agcmgw_requests_total{result="shed"}`, shed)
		reconcile(`agcmgw_requests_total{result="error"}`, errs)
		reconcile(`agcmgw_requests_total{result="rejected"}`, rejected)

		// Cluster ledger: per backend, what it served may exceed what the
		// gateway fully received only by abandoned or transport-failed
		// attempts (hedge losers read to completion appear on both sides).
		perBackend := make(map[string]backendRecon, len(backends))
		for i, b := range backends {
			served := deltaSum(beforeBackends[i], afterBackends[i],
				"agcmd_requests_total{", "peek_hit", "peek_miss")
			received := deltaSum(before, after,
				`agcmgw_backend_responses_total{backend="`+b+`"`)
			canceled := deltaSum(before, after,
				`agcmgw_backend_canceled_total{backend="`+b+`"`)
			transport := deltaSum(before, after,
				`agcmgw_backend_transport_errors_total{backend="`+b+`"`)
			diff := served - received
			// A monotonic counter going backwards means the process restarted;
			// a negative gap is the same signal seen through the ledger.
			regressed := afterBackends[i]["agcmd_runs_total"] < beforeBackends[i]["agcmd_runs_total"]
			rec := backendRecon{
				Served: served, GatewayReceived: received,
				Canceled: canceled, TransportErrors: transport,
			}
			switch {
			case *allowRestart && (regressed || diff < 0):
				rec.Restarted = true
			case diff < 0 || diff > canceled+transport:
				failures = append(failures, fmt.Sprintf(
					"backend %s served %g but gateway received %g (allowed gap 0..%g)",
					b, served, received, canceled+transport))
			}
			perBackend[b] = rec
			runsDelta += afterBackends[i]["agcmd_runs_total"] - beforeBackends[i]["agcmd_runs_total"]
		}
		gwStats = &gatewayStats{
			Policy:             *policy,
			Retries:            delta("agcmgw_retries_total"),
			RetryExhausted:     delta("agcmgw_retry_budget_exhausted_total"),
			HedgesLaunched:     delta(`agcmgw_hedges_total{result="launched"}`),
			HedgesWon:          delta(`agcmgw_hedges_total{result="won"}`),
			HedgesLost:         delta(`agcmgw_hedges_total{result="lost"}`),
			Degraded:           delta(`agcmgw_requests_total{result="degraded"}`),
			BreakerTransitions: deltaSum(before, after, "agcmgw_breaker_transitions_total{"),
			PerBackend:         perBackend,
		}
	}

	var spStats *specStats
	if sched != nil {
		// Per-class ledger: the edge the client talked to counts every
		// validated request by class (reissues included), so its per-class
		// deltas must match the client's issue counts exactly.
		classFamily := "agcmd_class_requests_total"
		if *target == "gateway" {
			classFamily = "agcmgw_class_requests_total"
		}
		perClass := make(map[string]classLatency)
		for _, class := range sched.Classes() {
			reconcile(fmt.Sprintf(`%s{class=%q}`, classFamily, class), t.classIssued[class])
			lat := append([]float64(nil), t.classLatencies[class]...)
			sort.Float64s(lat)
			perClass[class] = classLatency{
				Issued: t.classIssued[class],
				OK:     len(lat),
				P50Ms:  percentile(lat, 0.50) * 1000,
				P95Ms:  percentile(lat, 0.95) * 1000,
				P99Ms:  percentile(lat, 0.99) * 1000,
			}
		}
		schedHash, err := sched.Hash()
		if err != nil {
			log.Fatalf("agcmload: hashing schedule: %v", err)
		}
		spStats = &specStats{
			Name:              sched.Spec.Name,
			SpecSHA256:        mustSpecHash(sched.Spec),
			ScheduleSHA256:    schedHash,
			Timescale:         *timescale,
			Replayed:          replayed,
			ResponseSetSHA256: t.responseSetSHA256(),
			PerClass:          perClass,
		}
	}

	sort.Float64s(t.latencies)
	issued := 0
	for _, n := range t.byStatus {
		issued += n
	}
	okCount := t.byStatus[http.StatusOK]
	hits := t.byCache["hit"] + t.byCache["coalesced"]
	rep := benchReport{
		Note: "agcm serving benchmark: latency/throughput are host-dependent; " +
			"dispositions and reconciliation are deterministic for a given mix and pool size",
		Target:        *target,
		Requests:      issued,
		Concurrency:   *concurrency,
		DupRatio:      *dup,
		Zipf:          *zipf,
		Steps:         *steps,
		Seed:          *seed,
		Accept:        *accept,
		DurationS:     elapsed.Seconds(),
		ThroughputRPS: float64(okCount) / elapsed.Seconds(),
		P50Ms:         percentile(t.latencies, 0.50) * 1000,
		P99Ms:         percentile(t.latencies, 0.99) * 1000,
		HitRatio:      float64(hits) / float64(max(okCount, 1)),
		Dispositions:  t.byCache,
		StatusCounts:  statusKeys(t.byStatus),
		DistinctKeys:  len(t.bodyHash),
		Retried429:    t.retried429,
		RunsDelta:     runsDelta,
		Reconciled:    len(failures) == 0,
		Gateway:       gwStats,
		Spec:          spStats,
	}
	raw, _ := json.MarshalIndent(rep, "", "  ")
	raw = append(raw, '\n')
	if *out == "-" {
		os.Stdout.Write(raw)
	} else if err := os.WriteFile(*out, raw, 0o644); err != nil {
		log.Fatalf("agcmload: writing %s: %v", *out, err)
	}

	fmt.Fprintf(os.Stderr, "agcmload: %d requests in %.2fs (%.1f ok-rps), %d distinct keys, hit ratio %.2f\n",
		issued, elapsed.Seconds(), rep.ThroughputRPS, rep.DistinctKeys, rep.HitRatio)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "agcmload: INCONSISTENT: %s\n", f)
		}
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "agcmload: all responses per-key byte-identical; metrics reconcile\n")
}

func mustSpecHash(s workload.Spec) string {
	h, err := s.Hash()
	if err != nil {
		log.Fatalf("agcmload: hashing spec: %v", err)
	}
	return h
}

func statusKeys(m map[int]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[strconv.Itoa(k)] = v
	}
	return out
}
