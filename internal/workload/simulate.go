package workload

// Simulate: a deterministic virtual-time queueing model of the serving
// daemon's admission queue and worker pool.  It runs a schedule through a
// scheduling policy — the same three the live server offers — with service
// demands from a pluggable core.CostOracle (the linear PredictCost by
// default, the calibrated roofline model via SimOptions.Oracle), and reports
// per-class latency and fairness.  Everything is integer microseconds and
// fixed-order iteration, so the same (schedule, options) always produces
// the same result: BENCH_9's scheduler comparison is a committable
// artifact, not a host measurement.

import (
	"container/heap"
	"fmt"
	"sort"

	"agcm/internal/core"
)

// Policies lists the scheduling policies, in report order.  The names
// match the live server's -scheduler flag.
var Policies = []string{"fcfs", "priority", "sjf"}

// classRank orders SLO classes for the priority policy: interactive
// before batch.
func classRank(name string) int {
	if name == "interactive" {
		return 0
	}
	return 1
}

// SimOptions configures one simulation.
type SimOptions struct {
	// Policy is the scheduling policy: "fcfs" (arrival order — the live
	// server's default), "priority" (SLO class first, then arrival), or
	// "sjf" (predicted cost first, arrival breaks ties).
	Policy string
	// Workers is the worker-pool size (default 4).
	Workers int
	// ServiceScale converts the oracle's predicted machine-seconds into
	// the arrival timeline's seconds (default 1).  It models how fast the
	// host executes simulated work relative to the workload clock; the
	// policy comparison holds at any fixed scale.
	ServiceScale float64
	// Oracle prices requests; nil means the built-in linear
	// core.PredictCost.  Install a roofline.Machine (via
	// core.CostOracle) to drive the what-if on predicted host seconds —
	// with ServiceScale 1, the virtual timeline then reads in real host
	// time.
	Oracle core.CostOracle
}

// simJob is one request in flight through the model.
type simJob struct {
	req    *Request
	costUS int64 // service demand in virtual microseconds
	doneUS int64 // completion time, filled at dispatch
}

// jobOrder returns the policy's strict ordering over queued jobs, mirroring
// server.NewScheduler's three; arrival sequence breaks every tie, so the
// order is total and the simulation deterministic.
func jobOrder(policy string) (func(a, b *simJob) bool, error) {
	switch policy {
	case "fcfs":
		return func(a, b *simJob) bool { return a.req.Seq < b.req.Seq }, nil
	case "priority":
		return func(a, b *simJob) bool {
			ac, bc := classRank(a.req.Class), classRank(b.req.Class)
			if ac != bc {
				return ac < bc
			}
			return a.req.Seq < b.req.Seq
		}, nil
	case "sjf":
		return func(a, b *simJob) bool {
			if a.costUS != b.costUS {
				return a.costUS < b.costUS
			}
			return a.req.Seq < b.req.Seq
		}, nil
	}
	return nil, fmt.Errorf("workload: unknown policy %q (fcfs, priority, sjf)", policy)
}

// jobHeap is the ready queue under a policy's ordering.
type jobHeap struct {
	jobs []*simJob
	less func(a, b *simJob) bool
}

func (h *jobHeap) Len() int           { return len(h.jobs) }
func (h *jobHeap) Less(i, j int) bool { return h.less(h.jobs[i], h.jobs[j]) }
func (h *jobHeap) Swap(i, j int)      { h.jobs[i], h.jobs[j] = h.jobs[j], h.jobs[i] }
func (h *jobHeap) Push(x any)         { h.jobs = append(h.jobs, x.(*simJob)) }
func (h *jobHeap) Pop() any {
	old := h.jobs
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	h.jobs = old[:n-1]
	return x
}

// doneHeap orders in-service jobs by completion time, arrival sequence on
// ties — the deterministic completion order.
type doneHeap []*simJob

func (h doneHeap) Len() int { return len(h) }
func (h doneHeap) Less(i, j int) bool {
	if h[i].doneUS != h[j].doneUS {
		return h[i].doneUS < h[j].doneUS
	}
	return h[i].req.Seq < h[j].req.Seq
}
func (h doneHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *doneHeap) Push(x any)   { *h = append(*h, x.(*simJob)) }
func (h *doneHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// ClassStats is one SLO class's latency and fairness summary.  Times are
// virtual microseconds; Slowdown is mean (queueing+service)/service, the
// classic flow-time slowdown (1 = never waited).
type ClassStats struct {
	Class         string  `json:"class"`
	Requests      int     `json:"requests"`
	MeanServiceUS int64   `json:"mean_service_us"`
	MeanLatencyUS int64   `json:"mean_latency_us"`
	P50US         int64   `json:"p50_us"`
	P95US         int64   `json:"p95_us"`
	P99US         int64   `json:"p99_us"`
	MaxUS         int64   `json:"max_us"`
	Slowdown      float64 `json:"slowdown"`
}

// SimResult is one policy's run over a schedule.
type SimResult struct {
	Policy           string       `json:"policy"`
	Workers          int          `json:"workers"`
	Requests         int          `json:"requests"`
	MakespanUS       int64        `json:"makespan_us"`
	Classes          []ClassStats `json:"classes"`
	MaxClassSlowdown float64      `json:"max_class_slowdown"`
}

// Class returns the stats for a class name, or a zero value if the class
// never appeared.
func (r *SimResult) Class(name string) ClassStats {
	for _, c := range r.Classes {
		if c.Class == name {
			return c
		}
	}
	return ClassStats{}
}

// percentile returns the nearest-rank percentile of a sorted int64 slice.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.9999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Simulate runs the schedule through the policy's queue on a fixed worker
// pool and returns per-class latency and fairness statistics.
func Simulate(sched *Schedule, opt SimOptions) (*SimResult, error) {
	if opt.Workers == 0 {
		opt.Workers = 4
	}
	if opt.Workers < 0 {
		return nil, fmt.Errorf("workload: workers must be positive, got %d", opt.Workers)
	}
	if opt.ServiceScale == 0 {
		opt.ServiceScale = 1
	}
	if opt.ServiceScale < 0 {
		return nil, fmt.Errorf("workload: service scale must be positive, got %g", opt.ServiceScale)
	}
	less, err := jobOrder(opt.Policy)
	if err != nil {
		return nil, err
	}

	// Predicted service demand per distinct (class, pool index).
	classByName := make(map[string]Class, len(sched.Spec.Classes))
	for _, c := range sched.Spec.Classes {
		classByName[c.Name] = c
	}
	costCache := make(map[string]int64)
	costOf := func(r *Request) (int64, error) {
		key := r.Key()
		if c, ok := costCache[key]; ok {
			return c, nil
		}
		cls, ok := classByName[r.Class]
		if !ok {
			return 0, fmt.Errorf("workload: request %d names class %q absent from spec", r.Seq, r.Class)
		}
		cfg, err := cls.Config(r.PoolIndex)
		if err != nil {
			return 0, err
		}
		sec, err := core.PredictCostWith(opt.Oracle, cfg, r.Steps)
		if err != nil {
			return 0, err
		}
		us := int64(sec * opt.ServiceScale * 1e6)
		if us < 1 {
			us = 1
		}
		costCache[key] = us
		return us, nil
	}

	jobs := make([]*simJob, len(sched.Requests))
	for i := range sched.Requests {
		r := &sched.Requests[i]
		cost, err := costOf(r)
		if err != nil {
			return nil, err
		}
		jobs[i] = &simJob{req: r, costUS: cost}
	}

	// Event loop: dispatch whenever a worker is free and the ready queue is
	// non-empty; otherwise advance the clock to the next completion or
	// arrival.  Completions at time t land before arrivals at t, so a
	// freed worker is visible to a simultaneous arrival — and both orders
	// are fixed, so the walk is deterministic.
	ready := &jobHeap{less: less}
	var busy doneHeap
	var clock int64
	free := opt.Workers
	next := 0 // next arrival index
	completed := 0
	var makespan int64

	type obs struct {
		latencyUS int64
		costUS    int64
	}
	perClass := make(map[string][]obs)

	for completed < len(jobs) {
		if free > 0 && ready.Len() > 0 {
			j := heap.Pop(ready).(*simJob)
			free--
			j.doneUS = clock + j.costUS
			heap.Push(&busy, j)
			continue
		}
		// Advance to the next event.
		var nextAt int64 = -1
		if next < len(jobs) {
			nextAt = jobs[next].req.AtUS
		}
		var nextDone int64 = -1
		if len(busy) > 0 {
			nextDone = busy[0].doneUS
		}
		switch {
		case nextDone >= 0 && (nextAt < 0 || nextDone <= nextAt):
			clock = nextDone
		case nextAt >= 0:
			clock = nextAt
		default:
			return nil, fmt.Errorf("workload: simulation stalled with %d jobs incomplete", len(jobs)-completed)
		}
		for len(busy) > 0 && busy[0].doneUS == clock {
			j := heap.Pop(&busy).(*simJob)
			free++
			completed++
			if j.doneUS > makespan {
				makespan = j.doneUS
			}
			perClass[j.req.Class] = append(perClass[j.req.Class], obs{
				latencyUS: j.doneUS - j.req.AtUS,
				costUS:    j.costUS,
			})
		}
		for next < len(jobs) && jobs[next].req.AtUS == clock {
			heap.Push(ready, jobs[next])
			next++
		}
	}

	res := &SimResult{
		Policy:     opt.Policy,
		Workers:    opt.Workers,
		Requests:   len(jobs),
		MakespanUS: makespan,
	}
	for _, name := range sched.Classes() {
		list := perClass[name]
		if len(list) == 0 {
			continue
		}
		lat := make([]int64, len(list))
		var latSum, costSum int64
		var slowSum float64
		for i, o := range list {
			lat[i] = o.latencyUS
			latSum += o.latencyUS
			costSum += o.costUS
			slowSum += float64(o.latencyUS) / float64(o.costUS)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		cs := ClassStats{
			Class:         name,
			Requests:      len(list),
			MeanServiceUS: costSum / int64(len(list)),
			MeanLatencyUS: latSum / int64(len(list)),
			P50US:         percentile(lat, 0.50),
			P95US:         percentile(lat, 0.95),
			P99US:         percentile(lat, 0.99),
			MaxUS:         lat[len(lat)-1],
			Slowdown:      slowSum / float64(len(list)),
		}
		res.Classes = append(res.Classes, cs)
		if cs.Slowdown > res.MaxClassSlowdown {
			res.MaxClassSlowdown = cs.Slowdown
		}
	}
	return res, nil
}
