// Command agcmload is the load generator and correctness prober for agcmd
// and the agcmgw gateway.  A run dispatches one declarative workload
// (internal/workload): -spec spec.json generates the schedule — arrival
// process, diurnal modulation, SLO class mix, Zipf config popularity —
// deterministically from the seeded spec, so dispatching the same file
// again replays the run byte for byte.  The requests go out open-loop at
// their virtual arrival times (compressed by -timescale, cut off by
// -duration); -dump-spec prints the canonicalized spec and exits.
//
// While measuring it verifies the serving layer's core promise:
//
//   - every 200 response for a given job key is byte-identical (the cache,
//     single-flight, and — through the gateway — retry/hedge/degraded
//     layers may never change what a config returns),
//   - the daemon's /metrics deltas reconcile with the client-side tallies,
//     overall and per SLO class.
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
// It emits a JSON report (throughput, p50/p99 latency, cache hit ratio, the
// spec/schedule/response-set hashes, and in gateway mode the
// retry/hedge/breaker ledger).  Exit status: 0 when everything reconciles,
// 2 on a usage error or any inconsistency, 1 when the run itself failed
// (unreachable daemon, malformed response), so it doubles as the CI smoke
// test.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
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
	mismatches []string
	// Per-SLO-class ledger: issued counts every HTTP issue, reissues
	// included, mirroring the server's validated-request counter; latencies
	// holds 200s only, in seconds.
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

// issue sends one scheduled request (plus its 429 reissues) and records
// every outcome in t.
func issue(o runOptions, t *tally, r workload.Request) error {
	wantFrame := o.accept == "frame"
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		req, err := http.NewRequest(http.MethodPost, o.addr+"/v1/run", strings.NewReader(r.Body))
		if err != nil {
			return fmt.Errorf("request %d: %v", r.Seq, err)
		}
		req.Header.Set("Content-Type", "application/json")
		if wantFrame {
			req.Header.Set("Accept", server.FrameContentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return fmt.Errorf("request %d: %v", r.Seq, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("reading response %d: %v", r.Seq, err)
		}
		elapsed := time.Since(t0)
		key := ""
		if resp.StatusCode == http.StatusOK {
			// In frame mode the byte-identity hash covers the raw frame; the
			// key is parsed from the embedded JSON section, which every valid
			// frame must carry.
			jsonBody := raw
			if wantFrame {
				if ct := resp.Header.Get("Content-Type"); ct != server.FrameContentType {
					return fmt.Errorf("response %d content-type %q, want %q", r.Seq, ct, server.FrameContentType)
				}
				if jsonBody, err = server.JSONBody(raw); err != nil {
					return fmt.Errorf("response %d is not a valid frame: %v", r.Seq, err)
				}
			}
			var parsed struct {
				Key string `json:"key"`
			}
			if err := json.Unmarshal(jsonBody, &parsed); err != nil || parsed.Key == "" {
				return fmt.Errorf("response %d has no key: %v", r.Seq, err)
			}
			key = parsed.Key
		}
		t.record(r.Class, resp.StatusCode, resp.Header.Get("X-Agcmd-Cache"), key, raw, elapsed)
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= o.retry429 {
			return nil
		}
		// Honor the server's own backpressure estimate before reissuing; the
		// shed above is already tallied, so the ledgers still balance.
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
		if strings.HasPrefix(k, prefix) &&
			!slices.ContainsFunc(exclude, func(e string) bool { return strings.Contains(k, e) }) {
			s += v - before[k]
		}
	}
	return s
}

// retryAfterSeconds parses a Retry-After header, defaulting and capping so
// a misbehaving server cannot park the client forever.
func retryAfterSeconds(h http.Header) time.Duration {
	secs := 1
	if n, err := strconv.Atoi(h.Get("Retry-After")); err == nil && n >= 0 {
		secs = n
	}
	return time.Duration(min(secs, 5)) * time.Second
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

// classLatency is one SLO class's client-side view.
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
	// generated request sequence — same spec, same schedule hash.
	SpecSHA256     string  `json:"spec_sha256"`
	ScheduleSHA256 string  `json:"schedule_sha256"`
	Timescale      float64 `json:"timescale"`
	// ResponseSetSHA256 fingerprints the key→body-hash set: two runs of the
	// same spec against fresh daemons must produce the same value.
	ResponseSetSHA256 string                  `json:"response_set_sha256"`
	PerClass          map[string]classLatency `json:"per_class"`
}

// benchReport is the JSON document -out receives.
type benchReport struct {
	Note          string         `json:"note"`
	Target        string         `json:"target"`
	Requests      int            `json:"requests"`
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
	Spec          specStats      `json:"spec"`
}

// runOptions is what the flags decide about one measured run.
type runOptions struct {
	addr, target, policy, accept string
	backends                     []string
	duration                     time.Duration
	timescale                    float64
	retry429                     int
	allowRestart                 bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind its process edges, so tests drive it
// in-process: it returns the exit status instead of exiting.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("agcmload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o runOptions
	fs.StringVar(&o.addr, "addr", "http://127.0.0.1:8080", "agcmd or agcmgw base URL")
	fs.StringVar(&o.target, "target", "agcmd", `what -addr points at: "agcmd" (exact cache reconciliation) or "gateway" (cluster ledger reconciliation)`)
	backendsFlag := fs.String("backends", "", "comma-separated agcmd base URLs behind the gateway (gateway mode)")
	fs.StringVar(&o.policy, "policy", "", "routing policy label recorded in the report (gateway mode)")
	fs.DurationVar(&o.duration, "duration", 0, "optional wall-clock cutoff (0 = dispatch the full schedule)")
	fs.IntVar(&o.retry429, "retry429", 0, "times to honor a 429's Retry-After and reissue the request (0 = record the shed and move on)")
	fs.BoolVar(&o.allowRestart, "allow-restart", false, "tolerate backend counter resets (a member was killed and restarted mid-run); its per-backend ledger is skipped, everything else still reconciles")
	fs.StringVar(&o.accept, "accept", "json", `response encoding to request: "json" or "frame" (sends Accept: application/x-agcm-frame; every 200 must be a well-formed frame whose embedded JSON section carries the key)`)
	out := fs.String("out", "-", "report path ('-' for stdout)")
	specPath := fs.String("spec", "", "workload spec JSON: generate its schedule and dispatch it")
	dumpSpec := fs.Bool("dump-spec", false, "print the canonicalized spec and exit")
	fs.Float64Var(&o.timescale, "timescale", 1, "virtual-to-wall time compression for pacing (2 = dispatch twice as fast)")
	if err := fs.Parse(args); err != nil {
		return 2 // the flag package has already said why
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "agcmload: "+format+"\n", a...)
		return code
	}
	switch {
	case *specPath == "":
		return fail(2, "usage: -spec FILE is required")
	case o.target != "agcmd" && o.target != "gateway":
		return fail(2, "unknown -target %q (want agcmd or gateway)", o.target)
	case o.accept != "json" && o.accept != "frame":
		return fail(2, "unknown -accept %q (want json or frame)", o.accept)
	case o.timescale <= 0:
		return fail(2, "-timescale %g out of range (must be > 0)", o.timescale)
	}
	o.addr = strings.TrimRight(o.addr, "/")
	if o.target == "gateway" {
		for _, b := range strings.Split(*backendsFlag, ",") {
			if b = strings.TrimSpace(b); b != "" {
				o.backends = append(o.backends, strings.TrimRight(b, "/"))
			}
		}
		if len(o.backends) == 0 {
			return fail(2, "gateway mode needs -backends")
		}
	}

	// Parse the spec and generate its schedule before touching the network,
	// so a bad spec fails fast.
	specJSON, err := os.ReadFile(*specPath)
	var spec workload.Spec
	if err == nil {
		spec, err = workload.ParseSpec(specJSON)
	}
	if err != nil {
		return fail(1, "loading %s: %v", *specPath, err)
	}
	if *dumpSpec {
		canonical, err := spec.CanonicalJSON()
		if err != nil {
			return fail(1, "%v", err)
		}
		stdout.Write(append(canonical, '\n'))
		return 0
	}
	sched, err := workload.Generate(spec)
	if err != nil {
		return fail(1, "generating %s: %v", *specPath, err)
	}

	rep, failures, err := measure(sched, o)
	if err != nil {
		return fail(1, "%v", err)
	}
	raw, _ := json.MarshalIndent(rep, "", "  ")
	raw = append(raw, '\n')
	if *out == "-" {
		stdout.Write(raw)
	} else if err := os.WriteFile(*out, raw, 0o644); err != nil {
		return fail(1, "writing %s: %v", *out, err)
	}

	fmt.Fprintf(stderr, "agcmload: %d requests in %.2fs (%.1f ok-rps), %d distinct keys, hit ratio %.2f\n",
		rep.Requests, rep.DurationS, rep.ThroughputRPS, rep.DistinctKeys, rep.HitRatio)
	for _, f := range failures {
		fmt.Fprintf(stderr, "agcmload: INCONSISTENT: %s\n", f)
	}
	if len(failures) > 0 {
		return 2
	}
	fmt.Fprintf(stderr, "agcmload: all responses per-key byte-identical; metrics reconcile\n")
	return 0
}

// measure dispatches the schedule against the daemon, reconciles the
// client's tallies with the /metrics deltas and returns the report plus
// every inconsistency found; err means the run itself could not complete.
func measure(sched *workload.Schedule, o runOptions) (*benchReport, []string, error) {
	prefix := "agcmd_"
	if o.target == "gateway" {
		prefix = "agcmgw_"
	}
	scrapeAll := func(when string) (map[string]float64, []map[string]float64, error) {
		edge, err := scrapeMetrics(o.addr, prefix)
		if err != nil {
			return nil, nil, fmt.Errorf("%s metrics scrape: %v", when, err)
		}
		members := make([]map[string]float64, len(o.backends))
		for i, b := range o.backends {
			if members[i], err = scrapeMetrics(b, "agcmd_"); err != nil {
				return nil, nil, fmt.Errorf("%s backend scrape %s: %v", when, b, err)
			}
		}
		return edge, members, nil
	}
	before, beforeBackends, err := scrapeAll("initial")
	if err != nil {
		return nil, nil, err
	}

	t := newTally()
	start := time.Now()
	// Open-loop dispatch: one goroutine per request, launched at its virtual
	// arrival time compressed by -timescale.  The dispatcher sleeps between
	// launches (arrival times are non-decreasing), so a slow server cannot
	// slow the arrival process down — that is the point of open-loop load.
	//
	// runErr is the first request that failed outright (transport error,
	// malformed response); it stops the dispatcher and fails the run.
	var runErr atomic.Pointer[error]
	var wg sync.WaitGroup
	dispatched := 0
	for _, r := range sched.Requests {
		at := time.Duration(float64(r.AtUS) / o.timescale * float64(time.Microsecond))
		if d := time.Until(start.Add(at)); d > 0 {
			time.Sleep(d)
		}
		if (o.duration > 0 && time.Since(start) > o.duration) || runErr.Load() != nil {
			break
		}
		wg.Add(1)
		dispatched++
		go func(r workload.Request) {
			defer wg.Done()
			if err := issue(o, t, r); err != nil {
				runErr.CompareAndSwap(nil, &err)
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := runErr.Load(); err != nil {
		return nil, nil, *err
	}

	after, afterBackends, err := scrapeAll("final")
	if err != nil {
		return nil, nil, err
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
	if o.target == "agcmd" {
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
		perBackend := make(map[string]backendRecon, len(o.backends))
		for i, b := range o.backends {
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
			case o.allowRestart && (regressed || diff < 0):
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
			Policy:             o.policy,
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

	// Per-class ledger: the edge the client talked to counts every validated
	// request by class (reissues included), so its per-class deltas must
	// match the client's issue counts exactly.
	perClass := make(map[string]classLatency)
	var latencies []float64
	for _, class := range sched.Classes() {
		reconcile(fmt.Sprintf(`%sclass_requests_total{class=%q}`, prefix, class), t.classIssued[class])
		lat := t.classLatencies[class]
		latencies = append(latencies, lat...)
		sort.Float64s(lat)
		perClass[class] = classLatency{
			Issued: t.classIssued[class],
			OK:     len(lat),
			P50Ms:  percentile(lat, 0.50) * 1000,
			P95Ms:  percentile(lat, 0.95) * 1000,
			P99Ms:  percentile(lat, 0.99) * 1000,
		}
	}
	specHash, err := sched.Spec.Hash()
	if err != nil {
		return nil, nil, fmt.Errorf("hashing spec: %v", err)
	}
	schedHash, err := sched.Hash()
	if err != nil {
		return nil, nil, fmt.Errorf("hashing schedule: %v", err)
	}

	sort.Float64s(latencies)
	issued := 0
	for _, n := range t.byStatus {
		issued += n
	}
	okCount := t.byStatus[http.StatusOK]
	hits := t.byCache["hit"] + t.byCache["coalesced"]
	return &benchReport{
		Note: "agcm serving benchmark: latency/throughput are host-dependent; " +
			"dispositions and reconciliation are deterministic for a given workload and pool size",
		Target:        o.target,
		Requests:      issued,
		Accept:        o.accept,
		DurationS:     elapsed.Seconds(),
		ThroughputRPS: float64(okCount) / elapsed.Seconds(),
		P50Ms:         percentile(latencies, 0.50) * 1000,
		P99Ms:         percentile(latencies, 0.99) * 1000,
		HitRatio:      float64(hits) / float64(max(okCount, 1)),
		Dispositions:  t.byCache,
		StatusCounts:  statusKeys(t.byStatus),
		DistinctKeys:  len(t.bodyHash),
		Retried429:    issued - dispatched, // every HTTP issue past a request's first is a 429 reissue
		RunsDelta:     runsDelta,
		Reconciled:    len(failures) == 0,
		Gateway:       gwStats,
		Spec: specStats{
			Name:              sched.Spec.Name,
			SpecSHA256:        specHash,
			ScheduleSHA256:    schedHash,
			Timescale:         o.timescale,
			ResponseSetSHA256: t.responseSetSHA256(),
			PerClass:          perClass,
		},
	}, failures, nil
}

func statusKeys(m map[int]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[strconv.Itoa(k)] = v
	}
	return out
}
