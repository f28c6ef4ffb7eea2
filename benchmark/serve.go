package main

// The two serving workloads: one op is one POST /v1/run through an
// in-process gateway (key-affinity, one backend) to a server (two workers,
// fcfs, memory cache plus disk tier) on two loopback httptest servers.
//
// The load is a closed loop: each client sends its next request only after
// the previous one completed, because the callers of this system are scripts
// waiting for a result.  There are as many clients as server workers (and
// never more than nproc), so no queue builds and scheduler policy is
// deliberately not measured here.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"agcm/internal/core"
	"agcm/internal/gateway"
	"agcm/internal/server"
	"agcm/internal/workload"
)

const (
	serveWorkers = 2
	serveSteps   = 1

	// serve-cold draws coldRequests times from coldPool configs and keeps
	// each config's first appearance: about 4000 distinct keys in seeded
	// order, more than a run of RunSeconds can consume.
	coldPool     = 4096
	coldRequests = 4 * coldPool
	coldWarm     = 50 // warm-up requests per set-up

	// serve-hot asks hotRequests times, Zipf 1.2, for hotPool configs; its
	// set-up fills the cache with every config that appears.
	hotPool     = 200
	hotRequests = 50000
	hotZipf     = 1.2

	// serveSlice is the stretch of closed-loop requests between two sweeps
	// of the host clock.
	serveSlice = 200 * time.Millisecond
)

// serveClients is the number of closed-loop clients: one per server worker,
// and never more than nproc.
func serveClients() int {
	if n := runtime.NumCPU(); n < serveWorkers {
		return n
	}
	return serveWorkers
}

// serveTemplate is the simulation every serving request asks for, before the
// pool index varies its init_wind.
var serveTemplate = workload.Template{
	Nlon: 72, Nlat: 46, Nlayers: 5, Machine: "paragon", MeshPy: 2, MeshPx: 2, Filter: "fft",
}

// serveKey is one distinct request the client may send.
type serveKey struct {
	pool   int
	body   string
	jobKey string
}

// serveInput is a serving workload's generated input.
type serveInput struct {
	class     workload.Class
	keys      []serveKey // distinct keys, in order of first appearance
	order     []int      // the request sequence, as indices into keys
	generateS float64
}

// makeInput generates the schedule from the seed with workload.Generate and
// derives every key's job key with the server's own public function.
func makeInput(name string, seed int64, quick bool) (*serveInput, error) {
	pool, requests, zipf := coldPool, coldRequests, 0.0
	if name == ServeHot {
		pool, requests, zipf = hotPool, hotRequests, hotZipf
	}
	if quick {
		pool, requests = pool/5, requests/25
	}
	start := time.Now()
	sched, err := workload.Generate(workload.Spec{
		Name: name, Seed: seed, Requests: requests,
		Classes: []workload.Class{{
			Name: "batch", Steps: serveSteps,
			Pool:     workload.Pool{Distinct: pool, Zipf: zipf},
			Template: serveTemplate,
		}},
	})
	if err != nil {
		return nil, err
	}
	in := &serveInput{class: sched.Spec.Classes[0], generateS: time.Since(start).Seconds()}
	byPool := make(map[int]int)
	for _, r := range sched.Requests {
		k, seen := byPool[r.PoolIndex]
		if !seen {
			cfg, err := in.class.Config(r.PoolIndex)
			if err != nil {
				return nil, err
			}
			jobKey, err := server.JobKeyFor(cfg, serveSteps)
			if err != nil {
				return nil, err
			}
			k = len(in.keys)
			byPool[r.PoolIndex] = k
			in.keys = append(in.keys, serveKey{r.PoolIndex, r.Body, jobKey})
		}
		if name == ServeHot || !seen {
			in.order = append(in.order, k)
		}
	}
	return in, nil
}

// stack is one gateway → server pair on loopback.
type stack struct {
	srv      *server.Server
	gw       *gateway.Gateway
	backend  *httptest.Server
	front    *httptest.Server
	upstream *http.Transport
	dir      string

	tallies
}

// tallies counts answers at the client: what a stack, or one client during
// one phase, has seen.
type tallies struct {
	tally    map[string]int // X-Agcmd-Cache dispositions
	requests int
	attempts int // sum of X-Agcmgw-Attempts
	shed     int // 429 responses
}

func (t *tallies) add(o tallies) {
	for k, v := range o.tally {
		t.tally[k] += v
	}
	t.requests += o.requests
	t.attempts += o.attempts
	t.shed += o.shed
}

// newStack starts a stack; with a tracer, the span wrappers sit at every
// layer boundary, without one the stack is exactly what cmd/agcmgw and
// cmd/agcmd assemble.
func newStack(tr *tracer, scratch string) (*stack, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "cache-")
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir, tallies: tallies{tally: make(map[string]int)}}
	opt := server.Options{Workers: serveWorkers, Scheduler: "fcfs", CacheDir: dir}
	if tr != nil {
		opt.Runner = tr.runner()
	}
	if st.srv, err = server.New(opt); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	handler := st.srv.Handler()
	if tr != nil {
		handler = tr.serverHandler(handler)
	}
	st.backend = httptest.NewServer(handler)

	// The gateway's production transport is http.DefaultTransport; a clone
	// keeps its settings and can be closed with the stack.
	st.upstream = http.DefaultTransport.(*http.Transport).Clone()
	gwOpt := gateway.Options{Backends: []string{st.backend.URL}, Policy: "key-affinity", Transport: st.upstream}
	if tr != nil {
		gwOpt.Transport = linkTransport{st.upstream}
	}
	if st.gw, err = gateway.New(gwOpt); err != nil {
		st.backend.Close()
		st.drain()
		return nil, err
	}
	front := st.gw.Handler()
	if tr != nil {
		front = tr.gatewayHandler(front)
	}
	st.front = httptest.NewServer(front)
	return st, nil
}

func (st *stack) drain() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st.srv.Drain(ctx) // a timeout only means workers were still busy; the process is about to move on regardless
	os.RemoveAll(st.dir)
}

// close stops the stack front to back and waits for each part.
func (st *stack) close() {
	st.front.Close()
	st.gw.Close()
	st.upstream.CloseIdleConnections()
	st.backend.Close()
	st.drain()
}

// gatewayCounter sums the samples of one counter family (optionally one
// label value) in the gateway's /metrics text.
func (st *stack) gatewayCounter(hc *http.Client, prefix string) (float64, error) {
	resp, err := hc.Get(st.front.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	total := 0.0
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err != nil {
			return 0, fmt.Errorf("gateway /metrics line %q: %w", line, err)
		}
		total += v
	}
	return total, nil
}

// client is one closed-loop caller with its own connection.
type client struct {
	lane int
	tp   *http.Transport
	hc   *http.Client
	buf  bytes.Buffer
}

func newClient(lane int) *client {
	tp := &http.Transport{MaxIdleConnsPerHost: 1}
	return &client{lane: lane, tp: tp, hc: &http.Client{Transport: tp}}
}

// post sends one request and reads the whole response into the client's
// buffer; the returned body aliases it.
func (c *client) post(url, body, link string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/run", strings.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if link != "" {
		req.Header.Set(spanHeader, link)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, c.buf.Bytes(), err
}

// driver holds what the clients share across the phases of a pass.
type driver struct {
	in      *serveInput
	clients []*client
	next    atomic.Int64 // position in in.order
	request atomic.Int64 // request identifiers, across stacks
	// bodies[k] is the first body key k was answered with; every later
	// answer must equal it byte for byte.  serve-hot keeps every key's,
	// serve-cold (whose keys are asked once) every sampleEvery-th.
	bodies [][]byte
	// askedOn[k] is the stack a sampled serve-cold key was first asked on.
	askedOn map[int]*stack
}

const sampleEvery = 64

// phase is one closed-loop stretch: which keys to ask for, which answers
// count as correct, and when it ends (at position limit of order, or at the
// deadline, whichever is first).
type phase struct {
	order    []int  // indices into in.keys
	want     string // expected X-Agcmd-Cache
	keepAll  bool   // remember every first body (the serve-hot fill)
	wrap     bool   // walk order cyclically
	limit    int64
	deadline time.Time
}

// drive runs one phase on one stack and returns each op's wall seconds and
// the failures.
func (d *driver) drive(st *stack, tr *tracer, ph phase) (ops []float64, failures []string) {
	var wg sync.WaitGroup
	results := make([]struct {
		tallies
		ops      []float64
		failures []string
		sampled  []int
	}, len(d.clients))
	for ci, c := range d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[ci]
			r.tally = make(map[string]int)
			for {
				pos := d.next.Add(1) - 1
				if pos >= ph.limit || !ph.deadline.IsZero() && time.Now().After(ph.deadline) {
					d.next.Add(-1)
					return
				}
				if ph.wrap {
					pos %= int64(len(ph.order))
				}
				k := ph.order[pos]
				key := &d.in.keys[k]

				// Request identifiers are congruent to the lane modulo the
				// client count, so the trace file shows one row per client.
				reqID := d.request.Add(1)*int64(len(d.clients)) + int64(c.lane)
				var header string
				var spanID, start int64
				if tr != nil {
					spanID = tr.newID()
					header = link{reqID, spanID, k}.String()
					start = tr.now()
				}
				t0 := time.Now()
				resp, body, err := c.post(st.front.URL, key.body, header)
				wall := time.Since(t0).Seconds()
				if tr != nil {
					tr.add(span{ID: spanID, Request: reqID, Name: "load.request", Start: start, End: tr.now()})
				}
				r.ops = append(r.ops, wall)
				r.requests++
				if err != nil {
					r.failures = append(r.failures, fmt.Sprintf("pool %d: %v", key.pool, err))
					continue
				}
				cache := resp.Header.Get("X-Agcmd-Cache")
				r.tally[cache]++
				if resp.StatusCode == http.StatusTooManyRequests {
					r.shed++
				}
				attempts, _ := strconv.Atoi(resp.Header.Get("X-Agcmgw-Attempts")) // a missing header counts 0 and fails below
				r.attempts += attempts
				switch {
				case resp.StatusCode != http.StatusOK:
					r.failures = append(r.failures, fmt.Sprintf("pool %d: status %d: %s", key.pool, resp.StatusCode, bytes.TrimSpace(body)))
				case cache != ph.want:
					r.failures = append(r.failures, fmt.Sprintf("pool %d: cache disposition %q, want %s", key.pool, cache, ph.want))
				case attempts != 1:
					r.failures = append(r.failures, fmt.Sprintf("pool %d: %d gateway attempts, want 1", key.pool, attempts))
				case d.bodies[k] != nil:
					if !bytes.Equal(body, d.bodies[k]) {
						r.failures = append(r.failures, fmt.Sprintf("pool %d: body differs from the first answer", key.pool))
					}
				case !bytes.HasPrefix(body, []byte(`{"key":"`+key.jobKey+`"`)):
					r.failures = append(r.failures, fmt.Sprintf("pool %d: body does not carry job key %s", key.pool, key.jobKey))
				case ph.keepAll || k%sampleEvery == 0:
					d.bodies[k] = bytes.Clone(body)
					r.sampled = append(r.sampled, k)
				}
			}
		}()
	}
	wg.Wait()
	for _, r := range results {
		ops = append(ops, r.ops...)
		failures = append(failures, r.failures...)
		st.add(r.tallies)
		for _, k := range r.sampled {
			d.askedOn[k] = st
		}
	}
	return ops, failures
}

// checkFresh compares the served report of a key with a fresh core.Run of
// the same config: cached and fresh must agree bit for bit.
func (d *driver) checkFresh(k int) error {
	var served struct {
		Key    string            `json:"key"`
		Report server.ReportWire `json:"report"`
	}
	if err := json.Unmarshal(d.bodies[k], &served); err != nil {
		return fmt.Errorf("served body: %w", err)
	}
	cfg, err := d.in.class.Config(d.in.keys[k].pool)
	if err != nil {
		return err
	}
	rep, err := core.Run(cfg, serveSteps)
	if err != nil {
		return err
	}
	if served.Report.Total != rep.Total || served.Report.MaxAbsH != rep.MaxAbsH || served.Report.MessagesPerStep != rep.MessagesPerStep {
		return fmt.Errorf("pool %d: served report (total %g, max|h| %g) differs from a fresh run (total %g, max|h| %g)",
			d.in.keys[k].pool, served.Report.Total, served.Report.MaxAbsH, rep.Total, rep.MaxAbsH)
	}
	return nil
}

func runServe(name string, o options) (*pass, error) {
	g, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	p := newPass()
	d := &driver{askedOn: make(map[int]*stack)}
	for lane := 0; lane < serveClients(); lane++ {
		d.clients = append(d.clients, newClient(lane))
	}
	defer func() {
		for _, c := range d.clients {
			c.tp.CloseIdleConnections()
		}
	}()

	// In a traced pass a second, traced stack stands beside the plain one,
	// and the slices alternate between them.
	var stacks []*stack
	closeAll := func() {
		for _, st := range stacks {
			st.close()
		}
		stacks = nil
	}
	defer closeAll()
	tracerOf := func(st *stack) *tracer {
		if st == stacks[0] {
			return nil
		}
		return o.tr
	}

	// setUp is everything before the timed phase: generate the input, start
	// the stack, warm it up (serve-cold) or fill its cache (serve-hot), and
	// check the first answers against fresh runs and the golden.  It returns
	// its duration at nominal host speed and raw.
	setUp := func() (norm, raw float64, err error) {
		lap := func(fn func()) {
			wall, speed := o.clock.lap(fn)
			norm, raw = norm+wall*speed, raw+wall
		}
		lap(func() {
			if d.in, err = makeInput(name, o.seed, o.quick); err != nil {
				return
			}
			var st *stack
			if st, err = newStack(nil, o.scratch); err != nil {
				return
			}
			stacks = append(stacks, st)
			if o.tr == nil {
				return
			}
			jobKeys := make([]string, len(d.in.keys))
			for i, k := range d.in.keys {
				jobKeys[i] = k.jobKey
			}
			o.tr.bindKeys(jobKeys)
			if st, err = newStack(o.tr, o.scratch); err == nil {
				stacks = append(stacks, st)
			}
		})
		if err != nil {
			return 0, 0, err
		}
		in := d.in
		if d.bodies == nil {
			d.bodies = make([][]byte, len(in.keys))
		}
		d.next.Store(0)
		warmOps := int64(coldWarm)
		if o.quick {
			warmOps = 6
		}
		warm := phase{order: in.order, want: "miss"}
		if name == ServeHot {
			// The fill walks the distinct keys, not the schedule.
			warm.keepAll, warmOps = true, int64(len(in.keys))
			warm.order = make([]int, len(in.keys))
			for i := range warm.order {
				warm.order[i] = i
			}
		}
		for _, st := range stacks {
			if name == ServeHot {
				d.next.Store(0)
			}
			warm.limit = d.next.Load() + warmOps
			for d.next.Load() < warm.limit {
				warm.deadline = time.Now().Add(serveSlice)
				var failures []string
				lap(func() { _, failures = d.drive(st, tracerOf(st), warm) })
				if len(failures) > 0 {
					return 0, 0, fmt.Errorf("%s set-up: %s", name, failures[0])
				}
			}
		}
		if name == ServeHot {
			d.next.Store(0)
		}
		lap(func() {
			checked := 0
			for k := 0; k < len(in.keys) && checked < 3 && err == nil; k++ {
				if d.bodies[k] != nil {
					err = d.checkFresh(k)
					checked++
				}
			}
			for k, key := range in.keys {
				if key.pool != 0 || d.bodies[k] == nil || g.ServePool0Body == "" || err != nil {
					continue
				}
				sum := sha256.Sum256(d.bodies[k])
				if got := hex.EncodeToString(sum[:]); got != g.ServePool0Body {
					err = fmt.Errorf("pool 0 body hashes to %s, golden %s", got, g.ServePool0Body)
				}
			}
		})
		return norm, raw, err
	}

	for s := 0; s < o.setups; s++ {
		closeAll()
		norm, raw, err := setUp()
		if err != nil {
			return nil, err
		}
		p.setupS, p.rawSetupS = append(p.setupS, norm), append(p.rawSetupS, raw)
	}

	// The timed phase is cut into slices, each bracketed by the host clock's
	// sweeps; a quick pass is one slice of a fixed number of ops.
	timed := phase{order: d.in.order, want: "miss", limit: int64(len(d.in.order))}
	quickOps := int64(50)
	if name == ServeHot {
		timed = phase{order: d.in.order, want: "hit", wrap: true, limit: 1 << 62}
		quickOps = 500
	}
	runtime.GC()
	before := readAllocs()
	start := time.Now()
	for i := 0; ; i++ {
		ph := timed
		if o.quick {
			if i >= len(stacks) {
				break
			}
			ph.limit = d.next.Load() + quickOps/int64(len(stacks))
		} else {
			if time.Since(start).Seconds() >= o.seconds || d.next.Load() >= timed.limit {
				break
			}
			ph.deadline = time.Now().Add(serveSlice)
		}
		st := stacks[i%len(stacks)]
		var ops []float64
		var failures []string
		wall, speed := o.clock.lap(func() { ops, failures = d.drive(st, tracerOf(st), ph) })
		p.timed(ops, tracerOf(st) != nil, wall, speed)
		p.attempted += len(ops)
		for _, f := range failures {
			p.fail("%s", f)
		}
	}
	p.alloc = readAllocs().since(before)

	// Replay the sampled serve-cold keys: the answer must now come from a
	// cache tier and equal the first one byte for byte.
	if name == ServeCold {
		for k, st := range d.askedOn {
			if st != stacks[0] && st != stacks[len(stacks)-1] {
				continue // asked on an earlier set-up's stack
			}
			pool := d.in.keys[k].pool
			resp, body, err := d.clients[0].post(st.front.URL, d.in.keys[k].body, "")
			if err != nil {
				p.fail("replay of pool %d: %v", pool, err)
				continue
			}
			cache := resp.Header.Get("X-Agcmd-Cache")
			st.tally[cache]++
			switch {
			case resp.StatusCode != http.StatusOK:
				p.fail("replay of pool %d: status %d", pool, resp.StatusCode)
			case cache != "hit" && cache != "disk-hit":
				p.fail("replay of pool %d: cache disposition %q, want hit or disk-hit", pool, cache)
			case !bytes.Equal(body, d.bodies[k]):
				p.fail("replay of pool %d: body differs from the first answer", pool)
			}
		}
	}
	// Every miss ran exactly one simulation, and nothing else did.
	for _, st := range stacks {
		if runs, misses := st.srv.Runs(), int64(st.tally["miss"]); runs != misses {
			p.fail("server ran %d simulations for %d misses", runs, misses)
		}
	}
	p.notes = append(p.notes, fmt.Sprintf("%d closed-loop clients, %d server workers, %d distinct keys generated",
		len(d.clients), serveWorkers, len(d.in.keys)), p.rawNote())

	if o.tr != nil {
		if err := serveLayer(name, p, d, o.tr, stacks[0], stacks[1]); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// serveLayer fills the per-layer metrics a traced serving pass owns: the
// request path's self times come from serve-hot (no simulation in the way),
// the miss path's from serve-cold.
func serveLayer(name string, p *pass, d *driver, tr *tracer, plain, traced *stack) error {
	cfg, err := d.in.class.Config(0)
	if err != nil {
		return err
	}
	if err := coreLayer(p, tr, cfg, serveSteps); err != nil {
		return err
	}
	t := tr.tree()
	hasRun := func(kids []span) bool { return len(kids) > 0 }
	noRun := func(kids []span) bool { return len(kids) == 0 }
	sum := func(f func(st *stack) int) float64 { return float64(f(plain) + f(traced)) }

	if name == ServeHot {
		p.layer["load.self_ms_p50"] = median(t.selfMS("load.request", t.noRunBelow))
		p.layer["load.req_ms_p99"] = quantile(p.ops, 0.99) * 1e3
		p.layer["gateway.self_ms_p50"] = median(t.selfMS("gateway.handle", t.noRunBelow))
		p.layer["gateway.attempts_per_req"] = sum(func(st *stack) int { return st.attempts }) / sum(func(st *stack) int { return st.requests })
		for metric, family := range map[string]string{
			"gateway.retries": "agcmgw_retries_total ",
			"gateway.hedges":  `agcmgw_hedges_total{result="launched"}`,
		} {
			for _, st := range []*stack{plain, traced} {
				v, err := st.gatewayCounter(d.clients[0].hc, family)
				if err != nil {
					return err
				}
				p.layer[metric] += v
			}
		}
		p.layer["server.hit_ms_p50"] = median(t.selfMS("server.handle", noRun))
		p.layer["server.hits"] = sum(func(st *stack) int { return st.tally["hit"] })
		probes, err := serverProbes(plain, d.in)
		if err != nil {
			return err
		}
		for k, v := range probes {
			p.layer[k] = v
		}
		return nil
	}

	p.layer["server.self_ms_p50"] = median(t.selfMS("server.handle", hasRun))
	var waits []float64
	for _, s := range tr.spans {
		if s.Name == "core.run" && s.Parent != 0 {
			waits = append(waits, float64(s.Start-t.byID[s.Parent].Start)/1e6)
		}
	}
	p.layer["server.queue_wait_ms_p50"] = median(waits)
	p.layer["server.misses"] = sum(func(st *stack) int { return st.tally["miss"] })
	p.layer["server.coalesced"] = sum(func(st *stack) int { return st.tally["coalesced"] })
	p.layer["server.disk_hits"] = sum(func(st *stack) int { return st.tally["disk-hit"] })
	p.layer["server.shed"] = sum(func(st *stack) int { return st.shed })
	p.layer["server.runs"] = float64(plain.srv.Runs() + traced.srv.Runs())
	p.layer["workload.generate_ms"] = d.in.generateS * 1e3
	p.layer["workload.distinct_keys"] = float64(len(d.in.keys))
	return nil
}

// noRunBelow reports whether no simulation ran at any depth below a span
// with these children: the request was a cache hit.
func (t tree) noRunBelow(kids []span) bool {
	for _, c := range kids {
		if c.Name == "core.run" || !t.noRunBelow(t.children[c.ID]) {
			return false
		}
	}
	return true
}

// servedBodyHash returns the SHA-256 of the body a fresh stack serves for
// pool index 0 of the serving template: the serving golden.
func servedBodyHash(scratch string) (string, error) {
	in, err := makeInput(ServeHot, 1, true)
	if err != nil {
		return "", err
	}
	st, err := newStack(nil, scratch)
	if err != nil {
		return "", err
	}
	defer st.close()
	c := newClient(0)
	defer c.tp.CloseIdleConnections()
	for _, key := range in.keys {
		if key.pool != 0 {
			continue
		}
		resp, body, err := c.post(st.front.URL, key.body, "")
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("pool 0: status %d", resp.StatusCode)
		}
		sum := sha256.Sum256(body)
		return hex.EncodeToString(sum[:]), nil
	}
	return "", fmt.Errorf("pool index 0 does not appear in the serve-hot schedule")
}
