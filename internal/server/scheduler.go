package server

// The admission queue behind POST /v1/run: one bounded heap, three
// orderings.  Every policy shares the contract — bounded, non-blocking Push
// that sheds at the door, blocking Pop, Close-then-drain — and differs only
// in which admitted job a freed worker receives next:
//
//   fcfs      arrival order (the default),
//   priority  SLO class first (interactive before batch), then arrival,
//   sjf       cheapest predicted job first (the configured core.CostOracle;
//             the linear PredictCost by default, the calibrated roofline
//             model under `-cost-oracle roofline`), arrival breaks ties.
//             A job whose prediction failed carries the cost-0 sentinel: it
//             sorts ahead of every priced job and the Seq tie-break makes
//             those jobs mutually fcfs — prediction failure degrades the
//             ordering, never the admission.
//
// Scheduling never changes results — the same config produces the same
// bytes under any policy — only who waits.

import (
	"container/heap"
	"context"
	"fmt"
	"sync"
	"time"

	"agcm/internal/core"
)

// SLOClass is a request's service-level class — the serving stack's one
// admission vocabulary.  It says what the client's latency expectation is:
// the priority scheduler orders by it, the gateway hedges on it, and the
// per-class metrics report it.  It never affects results.
type SLOClass int

const (
	// Interactive is latency-sensitive traffic: operator probes, live
	// sweeps.  Only interactive requests are hedged by the gateway.
	Interactive SLOClass = iota
	// Batch is throughput traffic that tolerates queueing, and the default.
	Batch
	numClasses
)

// String returns the class name used in requests and metric labels.
func (c SLOClass) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	}
	return "invalid"
}

// ClassByName parses a request's slo field; the empty string is Batch.
func ClassByName(name string) (SLOClass, bool) {
	switch name {
	case "", "batch":
		return Batch, true
	case "interactive":
		return Interactive, true
	}
	return 0, false
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
	// Cost is the machine cost model's predicted run time
	// (core.PredictCost) — the sjf scheduler's oracle.
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

// SchedulerNames lists the available policies, default first.
func SchedulerNames() []string { return []string{"fcfs", "priority", "sjf"} }

// NewScheduler builds the named scheduling policy over a bounded queue.
// The empty name is fcfs, the default.
func NewScheduler(name string, capacity int) (*Scheduler, error) {
	s := &Scheduler{name: name, cap: capacity}
	switch name {
	case "", "fcfs":
		s.name = "fcfs"
		s.pq.less = func(a, b *Job) bool { return a.Seq < b.Seq }
	case "priority":
		s.pq.less = func(a, b *Job) bool {
			if a.Class != b.Class {
				return a.Class < b.Class
			}
			return a.Seq < b.Seq
		}
	case "sjf":
		s.pq.less = func(a, b *Job) bool {
			if a.Cost != b.Cost {
				return a.Cost < b.Cost
			}
			return a.Seq < b.Seq
		}
	default:
		return nil, fmt.Errorf("server: unknown scheduler %q (fcfs, priority, sjf)", name)
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// jobPQ is the heap under a Scheduler; less must be a strict total order
// (every policy tie-breaks on the admission sequence number, which is
// unique), so Pop order is deterministic for any fixed Push order.
type jobPQ struct {
	jobs []*Job
	less func(a, b *Job) bool
}

func (pq *jobPQ) Len() int           { return len(pq.jobs) }
func (pq *jobPQ) Less(i, j int) bool { return pq.less(pq.jobs[i], pq.jobs[j]) }
func (pq *jobPQ) Swap(i, j int)      { pq.jobs[i], pq.jobs[j] = pq.jobs[j], pq.jobs[i] }
func (pq *jobPQ) Push(x any)         { pq.jobs = append(pq.jobs, x.(*Job)) }
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
	mu     sync.Mutex
	cond   *sync.Cond
	name   string
	cap    int
	pq     jobPQ
	closed bool
}

// Name is the policy name reported in /metrics.
func (s *Scheduler) Name() string { return s.name }

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
