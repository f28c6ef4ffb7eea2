package server

// The admission model behind POST /v1/run, defined once: the SLO classes and
// their rank, the policy names, and the three orderings.  The live daemon and
// the what-if simulator (workload.Simulate) both queue jobs in this file's
// Scheduler, so a claim about a policy is a claim about the daemon.
//
// Every policy shares the contract — bounded, non-blocking Push that sheds
// at the door, blocking Pop, Close-then-drain — and differs only in which
// admitted job a freed worker receives next:
//
//   fcfs      arrival order (the default),
//   priority  SLO class first (interactive before batch), then arrival,
//   sjf       cheapest predicted job first (the configured core.CostOracle),
//             arrival breaks ties.  A job whose prediction failed carries
//             the cost-0 sentinel: it sorts ahead of every priced job and
//             the Seq tie-break makes those jobs mutually fcfs — prediction
//             failure degrades the ordering, never the admission.
//
// Scheduling never changes results — the same config produces the same
// bytes under any policy — only who waits.

import (
	"container/heap"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"agcm/internal/core"
)

// SLOClass is a request's service-level class — the serving stack's one
// admission vocabulary.  It says what the client's latency expectation is:
// the priority scheduler orders by it (lower value first), the gateway
// hedges on it, and the per-class metrics report it.  It never affects
// results.
type SLOClass int

const (
	// Interactive is latency-sensitive traffic: operator probes, live
	// sweeps.  Only interactive requests are hedged by the gateway.
	Interactive SLOClass = iota
	// Batch is throughput traffic that tolerates queueing, and the default.
	Batch
	numClasses
)

// classNames is the wire and metric-label spelling of each class.
var classNames = [numClasses]string{Interactive: "interactive", Batch: "batch"}

// String returns the class name used in requests and metric labels.
func (c SLOClass) String() string {
	if c < 0 || c >= numClasses {
		return "invalid"
	}
	return classNames[c]
}

// ClassByName parses a request's slo field; the empty string is Batch.
func ClassByName(name string) (SLOClass, bool) {
	if name == "" {
		return Batch, true
	}
	c := slices.Index(classNames[:], name)
	return SLOClass(c), c >= 0
}

// Runner executes one simulation; the production runner is core.RunContext,
// tests substitute counters and blockers.
type Runner func(ctx context.Context, cfg core.Config, steps int) (*core.Report, error)

// Job is one admitted simulation request on its way through the worker pool.
type Job struct {
	// Request is the decoded request: the key, config, canonical bytes and
	// step count a worker runs, and the SLO class the priority scheduler
	// orders by and the per-class metrics are labeled with.
	*Request
	// Timeout bounds the run's execution once a worker picks it up; the
	// worker threads it into core.RunContext as a context deadline.
	Timeout time.Duration
	// Cost is the cost oracle's predicted run time, which sjf orders by; 0
	// when the policy does not order on cost or the prediction failed.
	Cost float64
	// Seq is the admission sequence number; every policy uses it as the
	// final tie-break, so scheduling is deterministic for a fixed arrival
	// order.
	Seq uint64

	flight *flight
	// enqueued is when the job entered the scheduler; the worker derives
	// queue-wait time (and the fairness metric's slowdown) from it.
	enqueued time.Time
}

// policies is the one definition of the scheduling policies, default first.
// A policy orders jobs by its key, then by the admission sequence number —
// which is unique, so every order is strict and total and Pop order is
// deterministic for any fixed Push order.  usesCost marks the keys that read
// Job.Cost: only for those is a job worth pricing.
var policies = []struct {
	name     string
	usesCost bool
	key      func(*Job) float64
}{
	{name: "fcfs", key: func(*Job) float64 { return 0 }},
	{name: "priority", key: func(j *Job) float64 { return float64(j.Class) }},
	{name: "sjf", usesCost: true, key: func(j *Job) float64 { return j.Cost }},
}

// SchedulerNames lists the available policies, default first.
func SchedulerNames() []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.name
	}
	return names
}

// NewScheduler builds the named scheduling policy over a bounded queue.
// The empty name is the default policy.
func NewScheduler(name string, capacity int) (*Scheduler, error) {
	if name == "" {
		name = policies[0].name
	}
	for _, p := range policies {
		if p.name == name {
			s := &Scheduler{name: name, usesCost: p.usesCost, cap: capacity, pq: jobPQ{key: p.key}}
			s.cond = sync.NewCond(&s.mu)
			return s, nil
		}
	}
	return nil, fmt.Errorf("server: unknown scheduler %q (want one of %v)", name, SchedulerNames())
}

// jobPQ is the heap under a Scheduler.
type jobPQ struct {
	jobs []*Job
	key  func(*Job) float64
}

func (pq *jobPQ) Len() int { return len(pq.jobs) }
func (pq *jobPQ) Less(i, j int) bool {
	a, b := pq.jobs[i], pq.jobs[j]
	if ka, kb := pq.key(a), pq.key(b); ka != kb {
		return ka < kb
	}
	return a.Seq < b.Seq
}
func (pq *jobPQ) Swap(i, j int) { pq.jobs[i], pq.jobs[j] = pq.jobs[j], pq.jobs[i] }
func (pq *jobPQ) Push(x any)    { pq.jobs = append(pq.jobs, x.(*Job)) }
func (pq *jobPQ) Pop() any {
	old := pq.jobs
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	pq.jobs = old[:n-1]
	return x
}

// Scheduler is the bounded admission queue in front of the worker pool,
// safe for concurrent use.  Push never blocks: when the queue is full the
// request is shed at the door (the HTTP layer turns that into 429 +
// Retry-After), which keeps queueing delay bounded instead of letting
// latency grow without limit.
type Scheduler struct {
	mu       sync.Mutex
	cond     *sync.Cond
	name     string
	usesCost bool
	cap      int
	pq       jobPQ
	closed   bool
}

// Name is the policy name reported in /metrics.
func (s *Scheduler) Name() string { return s.name }

// UsesCost reports whether the policy orders on Job.Cost.
func (s *Scheduler) UsesCost() bool { return s.usesCost }

// Push admits a job, or reports false when the queue is full or closed.
func (s *Scheduler) Push(j *Job) bool {
	s.mu.Lock()
	if s.closed || len(s.pq.jobs) >= s.cap {
		s.mu.Unlock()
		return false
	}
	heap.Push(&s.pq, j)
	s.mu.Unlock()
	s.cond.Signal()
	return true
}

// Pop blocks for the next job under the policy's order and reports false
// once the scheduler is closed and drained.
func (s *Scheduler) Pop() (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if len(s.pq.jobs) > 0 {
			return heap.Pop(&s.pq).(*Job), true
		}
		if s.closed {
			return nil, false
		}
		s.cond.Wait()
	}
}

// Close stops admission; Pop keeps draining what was already accepted.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Depth returns the number of queued (not yet running) jobs.
func (s *Scheduler) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pq.jobs)
}
