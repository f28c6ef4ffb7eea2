// Package server implements agcmd, the concurrent simulation-serving layer
// over the virtual AGCM: an HTTP daemon that accepts canonical simulation
// configs, runs them on a bounded worker pool, and exploits the virtual
// machine's bit-determinism (identical core.Config ⇒ byte-identical Report)
// with a content-addressed result cache.
//
// The request path is: canonicalize the config (core.Config.CanonicalJSON)
// → derive the cache key → serve from the LRU cache on a hit →
// otherwise coalesce onto an identical in-flight run (single-flight) →
// otherwise admit into the bounded scheduler queue, shedding with 429 +
// Retry-After when full.  Workers execute runs under per-job deadlines via
// core.RunContext.  Identical configs therefore cost one simulation no
// matter how many clients ask, and every response for a key is byte-
// identical — the cached bytes are the worker's bytes.
//
// Observability: /metrics (Prometheus text format), /healthz (liveness),
// /readyz (readiness — not-ready while draining, so a fronting gateway
// stops routing here before shutdown completes), and graceful drain —
// Drain stops admission, finishes accepted work, then returns.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"agcm/internal/core"
	"agcm/internal/frame"
	"agcm/internal/machine"
	"agcm/internal/roofline"
	"agcm/internal/sim"
)

// Options configures a Server.  The zero value takes the documented
// defaults.
type Options struct {
	// Workers is the worker-pool size: the number of simulations in
	// flight at once (default 4).  Each job is itself a multi-goroutine
	// virtual machine, so a worker is a simulation slot, not an OS thread.
	Workers int
	// QueueCapacity bounds the admission queue (default 64); beyond it
	// requests are shed with 429.
	QueueCapacity int
	// Scheduler selects the admission-queue policy: "fcfs" (default),
	// "priority", or "sjf" (see NewScheduler).
	Scheduler string
	// CacheEntries bounds the result cache (default 1024 entries).
	CacheEntries int
	// JobTimeout is the default per-job execution budget (default 60s).
	// A request's timeout_ms may lower it but never raise it.
	JobTimeout time.Duration
	// MaxSteps rejects requests asking for more measured steps (0 = no
	// limit): a guard against a single request monopolizing a worker.
	MaxSteps int
	// BackendID, when set, is stamped on every response as the
	// X-Agcmd-Backend header so a fronting gateway and its load tools can
	// attribute responses to cluster members.
	BackendID string
	// CacheDir, when set, enables the disk cache tier: a content-addressed
	// frame store under the in-memory LRU.  Every finished run is persisted
	// there before its response is released, so any body a client (or the
	// fronting gateway) has observed survives a SIGKILL — a restarted
	// daemon pointed at the same directory serves byte-identical bodies
	// from disk without re-running, and replicas sharing the directory
	// share the warmth.  Empty disables the tier.
	CacheDir string
	// CacheDiskBytes bounds the disk tier (default frame.DefaultStoreBytes
	// when CacheDir is set).
	CacheDiskBytes int64
	// Runner executes simulations; nil means core.RunContext.  Tests
	// substitute blockers and counters.
	Runner Runner
	// CostOracle prices jobs for the sjf scheduler, the only policy that
	// orders on cost; nil means the roofline predictor on the built-in host
	// model (machine.Host).  `agcmd -calib` installs the predictor on a
	// model fitted on this host.
	CostOracle core.CostOracle
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueCapacity <= 0 {
		o.QueueCapacity = 64
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 1024
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 60 * time.Second
	}
	if o.Runner == nil {
		o.Runner = func(ctx context.Context, cfg core.Config, steps int) (*core.Report, error) {
			return core.RunContext(ctx, cfg, steps)
		}
	}
	return o
}

// flight is one in-flight resolution (simulation run, disk-tier read, or
// shed verdict) that concurrent identical requests wait on.  The result
// fields are written exactly once, before done closes.
type flight struct {
	done   chan struct{}
	status int
	body   []byte
	// isFrame marks body as a response frame to serve via content
	// negotiation; false means a raw JSON (error) body.
	isFrame bool
	// retryAfter, when nonzero, is the Retry-After hint (seconds) replayed
	// to every waiter of a shed flight.
	retryAfter int
}

// Server is the simulation-serving daemon's HTTP-independent core plus its
// http.Handler face.
type Server struct {
	opt     Options
	queue   *Scheduler
	cache   *cache
	store   *frame.Store // disk tier; nil when Options.CacheDir is empty
	metrics *serverMetrics

	flightMu sync.Mutex
	flights  map[string]*flight

	inflight atomic.Int64
	seq      atomic.Uint64
	draining atomic.Bool
	wg       sync.WaitGroup
}

// New builds a Server and starts its worker pool.  Call Drain to stop.
// The error sources are an unknown scheduler name and opening the disk
// cache tier; with Scheduler and CacheDir unset, New cannot fail.
func New(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	sched, err := NewScheduler(opt.Scheduler, opt.QueueCapacity)
	if err != nil {
		return nil, err
	}
	if opt.CostOracle == nil {
		if opt.CostOracle, err = roofline.NewMachine(machine.Host()); err != nil {
			return nil, err
		}
	}
	s := &Server{
		opt:     opt,
		queue:   sched,
		cache:   newCache(opt.CacheEntries),
		flights: make(map[string]*flight),
	}
	p := probes{
		queueDepth:   func() int64 { return int64(sched.Depth()) },
		inflight:     s.inflight.Load,
		cacheEntries: func() int64 { return int64(s.cache.Len()) },
		cacheEvicted: func() int64 { return int64(s.cache.Evictions()) },
		draining:     s.draining.Load,
		scheduler:    sched.Name(),
	}
	if opt.CacheDir != "" {
		st, err := frame.OpenStore(opt.CacheDir, opt.CacheDiskBytes)
		if err != nil {
			return nil, fmt.Errorf("server: disk cache tier: %w", err)
		}
		s.store = st
		p.disk = &diskProbes{
			entries: func() int64 { return int64(st.Len()) },
			bytes:   st.Bytes,
			evicted: func() int64 { return int64(st.Evictions()) },
			corrupt: func() int64 { return int64(st.CorruptDropped()) },
		}
	}
	s.metrics = newMetrics(p)
	s.wg.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Runs returns how many simulations have actually executed — the
// single-flight and cache tests' run counter.
func (s *Server) Runs() int64 { return int64(s.metrics.runs.Get()) }

// SchedulerName reports the admission policy the server was built with.
func (s *Server) SchedulerName() string { return s.queue.Name() }

// Handler returns the daemon's HTTP mux: POST /v1/run, GET /v1/cache/{key},
// GET /healthz, GET /readyz, GET /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/cache/", s.handleCachePeek)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if s.opt.BackendID == "" {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Agcmd-Backend", s.opt.BackendID)
		mux.ServeHTTP(w, r)
	})
}

// Drain performs the graceful-shutdown sequence: refuse new requests,
// finish every accepted job (queued and running), then return.  It gives
// up when ctx expires.  Drain is what the daemon runs on SIGTERM.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
}

// errorBody is the JSON error envelope.  Marshaling a one-string struct
// cannot fail, but the error is checked anyway (a silent `_` here once hid
// the same pattern on the response path): the fallback is a fixed, valid
// envelope rather than an empty body.
func errorBody(msg string) []byte {
	raw, err := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	if err != nil {
		return []byte(`{"error":"internal error encoding error body"}` + "\n")
	}
	return append(raw, '\n')
}

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// ReportWire is the deterministic wire form of a core.Report.  Fields are
// a fixed set in a fixed order; floats round-trip bit-exactly (JSON's
// shortest formatting), so byte-equal bodies mean bit-equal reports and
// vice versa.
type ReportWire struct {
	Ranks            int       `json:"ranks"`
	Steps            int       `json:"steps"`
	StepsPerDay      int       `json:"steps_per_day"`
	FilterTime       float64   `json:"filter_s_day"`
	FDTime           float64   `json:"fd_s_day"`
	CommTime         float64   `json:"comm_s_day"`
	Dynamics         float64   `json:"dynamics_s_day"`
	PhysicsTime      float64   `json:"physics_s_day"`
	Total            float64   `json:"total_s_day"`
	PhysicsLoads     []float64 `json:"physics_loads"`
	FilterLoads      []float64 `json:"filter_loads"`
	PhysicsImbalance float64   `json:"physics_imbalance"`
	FilterImbalance  float64   `json:"filter_imbalance"`
	MessagesPerStep  float64   `json:"messages_per_step"`
	BytesPerStep     float64   `json:"bytes_per_step"`
	MaxWaitShare     float64   `json:"max_wait_share"`
	MaxAbsH          float64   `json:"max_abs_h"`
}

// responseJSON renders the byte-exact 200 JSON body for a finished run —
// the bytes embedded as the response frame's JSON section and replayed
// verbatim to every JSON client.  The marshal error is propagated (it was
// once silently discarded here): a run whose report cannot be encoded must
// surface as a 500, not as an empty body.
func responseJSON(key string, canonical []byte, steps int, rep *core.Report) ([]byte, error) {
	raw, err := json.Marshal(struct {
		Key    string          `json:"key"`
		Steps  int             `json:"steps"`
		Config json.RawMessage `json:"config"`
		Report ReportWire      `json:"report"`
	}{
		Key:    key,
		Steps:  steps,
		Config: canonical,
		Report: ReportWire{
			Ranks:            rep.Ranks,
			Steps:            rep.Steps,
			StepsPerDay:      rep.StepsPerDay,
			FilterTime:       rep.FilterTime,
			FDTime:           rep.FDTime,
			CommTime:         rep.CommTime,
			Dynamics:         rep.Dynamics,
			PhysicsTime:      rep.PhysicsTime,
			Total:            rep.Total,
			PhysicsLoads:     rep.PhysicsLoads,
			FilterLoads:      rep.FilterLoads,
			PhysicsImbalance: core.Imbalance(rep.PhysicsLoads),
			FilterImbalance:  core.Imbalance(rep.FilterLoads),
			MessagesPerStep:  rep.MessagesPerStep,
			BytesPerStep:     rep.BytesPerStep,
			MaxWaitShare:     rep.MaxWaitShare,
			MaxAbsH:          rep.MaxAbsH,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("server: encoding response body: %w", err)
	}
	return append(raw, '\n'), nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody("POST only"))
		return
	}
	if s.draining.Load() {
		s.metrics.requests.Inc("draining")
		writeJSON(w, http.StatusServiceUnavailable, errorBody("draining"))
		return
	}
	req, err := DecodeRequest(io.LimitReader(r.Body, 1<<20), r.Header)
	if err == nil && s.opt.MaxSteps > 0 && req.Steps > s.opt.MaxSteps {
		err = fmt.Errorf("steps %d out of range", req.Steps)
	}
	if err != nil {
		s.metrics.requests.Inc("rejected")
		writeJSON(w, http.StatusBadRequest, errorBody(err.Error()))
		return
	}
	key := req.Key
	timeout := s.opt.JobTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	// Every request that passed validation counts toward its class — hits,
	// coalesced waits, and sheds included — so a load client's per-class
	// issue counts reconcile exactly against this family.
	s.metrics.classRequests.Inc(req.Class.String())

	// Cache, single-flight and admission decide under one lock, so an
	// identical concurrent request can never slip between the cache miss
	// and the flight registration and start a duplicate run.
	s.flightMu.Lock()
	if body, ok := s.cache.Get(key); ok {
		s.flightMu.Unlock()
		s.metrics.requests.Inc("hit")
		w.Header().Set("X-Agcmd-Cache", "hit")
		writeNegotiated(w, r, http.StatusOK, body)
		return
	}
	if f := s.flights[key]; f != nil {
		s.flightMu.Unlock()
		s.metrics.requests.Inc("coalesced")
		s.await(w, r, f, "coalesced")
		return
	}
	// Register the flight before deciding how to fill it (disk tier, queue,
	// or shed verdict), so identical concurrent requests coalesce onto this
	// one instead of racing the same decision.
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.flightMu.Unlock()

	// Disk tier: a frame persisted by this process — or by a predecessor
	// killed without warning — fills the flight without consuming a worker
	// or re-running the simulation.
	if s.store != nil {
		if fb, ok := s.store.Get(key); ok {
			s.cache.Put(key, fb)
			s.finishFlight(key, f, http.StatusOK, fb, true, 0)
			s.metrics.requests.Inc("disk_hit")
			w.Header().Set("X-Agcmd-Cache", "disk-hit")
			writeNegotiated(w, r, http.StatusOK, fb)
			return
		}
	}

	// Price the job only under a policy that orders on cost (sjf).  A
	// failed prediction must degrade the *ordering*, never the service: cost
	// 0 is the sentinel that sorts the job ahead of every priced job, where
	// the Seq tie-break reduces to fcfs order — the job still runs, it is
	// just no longer sized.  Real predictions are always positive, so the
	// sentinel cannot collide.
	var cost float64
	if s.queue.UsesCost() {
		if cost, err = core.PredictCostWith(s.opt.CostOracle, req.Config, req.Steps); err != nil {
			s.metrics.requests.Inc("predict_fallback")
			cost = 0
		}
	}
	job := &Job{
		Request:  req,
		Timeout:  timeout,
		Cost:     cost,
		Seq:      s.seq.Add(1),
		flight:   f,
		enqueued: time.Now(),
	}
	if !s.queue.Push(job) {
		if s.draining.Load() {
			s.metrics.requests.Inc("draining")
			body := errorBody("draining")
			s.finishFlight(key, f, http.StatusServiceUnavailable, body, false, 0)
			writeJSON(w, http.StatusServiceUnavailable, body)
			return
		}
		s.metrics.requests.Inc("shed")
		ra := s.retryAfterSeconds()
		body := errorBody("queue full")
		s.finishFlight(key, f, http.StatusTooManyRequests, body, false, ra)
		w.Header().Set("Retry-After", strconv.Itoa(ra))
		writeJSON(w, http.StatusTooManyRequests, body)
		return
	}
	s.metrics.requests.Inc("miss")
	s.await(w, r, f, "miss")
}

// finishFlight publishes a flight's result and unregisters it.  The result
// fields are written before done closes (waiters only read after), and
// callers that cache a success body do so before calling finishFlight, so
// a request arriving after the delete finds the cache filled rather than
// restarting the work.
func (s *Server) finishFlight(key string, f *flight, status int, body []byte, isFrame bool, retryAfter int) {
	f.status = status
	f.body = body
	f.isFrame = isFrame
	f.retryAfter = retryAfter
	s.flightMu.Lock()
	delete(s.flights, key)
	s.flightMu.Unlock()
	close(f.done)
}

// await parks the request on its flight and writes the finished result.
// If the client disconnects first the job still completes (and caches) for
// whoever asks next.
func (s *Server) await(w http.ResponseWriter, r *http.Request, f *flight, disposition string) {
	select {
	case <-f.done:
		w.Header().Set("X-Agcmd-Cache", disposition)
		if f.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(f.retryAfter))
		}
		if f.isFrame {
			writeNegotiated(w, r, f.status, f.body)
			return
		}
		writeJSON(w, f.status, f.body)
	case <-r.Context().Done():
	}
}

// retryAfterSeconds estimates when shed traffic should come back: the
// backlog ahead of a new arrival, paced at the observed mean job latency
// over the pool, clamped to [1, 60] seconds.
func (s *Server) retryAfterSeconds() int {
	avg := s.metrics.AvgJobSeconds()
	if avg <= 0 {
		avg = 1
	}
	backlog := float64(s.queue.Depth()) + float64(s.inflight.Load())
	est := int(math.Ceil(avg * backlog / float64(s.opt.Workers)))
	if est < 1 {
		est = 1
	}
	if est > 60 {
		est = 60
	}
	return est
}

// worker pulls jobs until the queue closes and is drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		job, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.inflight.Add(1)
		//lint:allow ctxflow deliberate root: an accepted job runs to completion for the cache even after every waiting client disconnects; the per-job Timeout still bounds it
		ctx, cancel := context.WithTimeout(context.Background(), job.Timeout)
		start := time.Now()
		rep, err := s.opt.Runner(ctx, job.Config, job.Steps)
		elapsed := time.Since(start)
		cancel()
		s.metrics.runs.Inc()
		if err != nil {
			s.metrics.runErrs.Inc()
		}
		s.metrics.observeJob(job.Class, start.Sub(job.enqueued).Seconds(), elapsed.Seconds())

		var status int
		var body []byte
		isFrame := false
		if err != nil {
			var ce *sim.CanceledError
			if errors.As(err, &ce) {
				status = http.StatusGatewayTimeout
				body = errorBody("simulation exceeded its deadline: " + err.Error())
			} else {
				status = http.StatusInternalServerError
				body = errorBody(err.Error())
			}
		} else if fb, ferr := encodeResponseFrame(job.Key, job.Canonical, job.Steps, rep); ferr != nil {
			status = http.StatusInternalServerError
			body = errorBody(ferr.Error())
		} else {
			status = http.StatusOK
			body = fb
			isFrame = true
			s.cache.Put(job.Key, fb)
			if s.store != nil {
				// Persist before the flight closes: once any client has
				// observed this response, the frame is already durable, so
				// a SIGKILL cannot lose an observed body.
				if perr := s.store.Put(job.Key, fb); perr != nil {
					s.metrics.requests.Inc("disk_put_error")
				}
			}
		}

		s.finishFlight(job.Key, job.flight, status, body, isFrame, 0)
		s.inflight.Add(-1)
	}
}

// handleHealthz is the liveness probe: "is the process up?"  It stays 200
// through a drain — the process is alive and still answering accepted
// work — so an orchestrator does not kill a draining daemon early.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz is the readiness probe: "should new traffic be routed
// here?"  A draining server reports not-ready immediately, before SIGTERM
// completes, so a fronting gateway stops routing while accepted jobs
// finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ready\n")
}

// handleCachePeek serves GET /v1/cache/{key}: the cached response body for
// a job key, or 404.  It never runs a simulation and keeps working during a
// drain — it is the gateway's graceful-degradation path (any backend that
// has the bytes can answer for a saturated or dying shard).
func (s *Server) handleCachePeek(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody("GET only"))
		return
	}
	key := r.URL.Path[len("/v1/cache/"):]
	if key == "" {
		writeJSON(w, http.StatusBadRequest, errorBody("missing key"))
		return
	}
	if body, ok := s.cache.Get(key); ok {
		s.metrics.requests.Inc("peek_hit")
		w.Header().Set("X-Agcmd-Cache", "peek")
		writeNegotiated(w, r, http.StatusOK, body)
		return
	}
	// Disk fallthrough: a restarted (or sibling) daemon can answer peeks
	// for anything persisted before the memory tier was lost.
	if s.store != nil && frame.ValidKey(key) {
		if fb, ok := s.store.Get(key); ok {
			s.cache.Put(key, fb)
			s.metrics.requests.Inc("peek_disk_hit")
			w.Header().Set("X-Agcmd-Cache", "peek-disk")
			writeNegotiated(w, r, http.StatusOK, fb)
			return
		}
	}
	s.metrics.requests.Inc("peek_miss")
	writeJSON(w, http.StatusNotFound, errorBody("not cached"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WriteText(w)
}
