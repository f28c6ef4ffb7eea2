package workload

// Simulate: a deterministic virtual-time queueing model of the serving
// daemon's admission queue and worker pool.  It runs a schedule through a
// scheduling policy — the live server's own Scheduler, imported rather than
// mirrored — with service demands from a core.CostOracle (the roofline
// predictor on whichever machine model the what-if is about), and reports
// per-class latency and fairness.  Everything is integer microseconds and
// fixed-order iteration, so the same (schedule, options) always produces
// the same result: the scheduling experiment's comparison is a committable
// record (a section of RESULTS.txt), not a host measurement.

import (
	"cmp"
	"fmt"
	"slices"

	"agcm/internal/core"
	"agcm/internal/server"
)

// SimOptions configures one simulation.
type SimOptions struct {
	// Policy names the scheduling policy (server.SchedulerNames; the empty
	// name is the server's default).
	Policy string
	// Workers is the worker-pool size (default 4).
	Workers int
	// Oracle prices requests, in seconds of the arrival timeline; required.
	// Every policy needs it — a job's price is its service demand — and
	// sjf also orders by it.
	Oracle core.CostOracle
}

// simJob is one request in flight through the model.  The embedded
// server.Job carries what the policy orders on — class, arrival sequence and
// Cost, here the service demand in whole virtual microseconds — and is what
// the live daemon's Scheduler queues.
type simJob struct {
	server.Job
	req    *Request
	doneUS int64 // completion time, filled at dispatch
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
	done, res, err := play(sched, opt)
	if err != nil {
		return nil, err
	}
	perClass := make(map[string][]*simJob)
	for _, j := range done {
		perClass[j.req.Class] = append(perClass[j.req.Class], j)
	}
	for _, name := range sched.Classes() {
		list := perClass[name]
		if len(list) == 0 {
			continue
		}
		lat := make([]int64, len(list))
		var latSum, costSum int64
		var slowSum float64
		for i, j := range list {
			lat[i] = j.doneUS - j.req.AtUS
			latSum += lat[i]
			costSum += int64(j.Cost)
			slowSum += float64(lat[i]) / j.Cost
		}
		slices.Sort(lat)
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

// play prices every request and runs the event loop.  It returns the jobs in
// completion order, each with doneUS set, and the result's header fields.
func play(sched *Schedule, opt SimOptions) ([]*simJob, *SimResult, error) {
	if opt.Workers == 0 {
		opt.Workers = 4
	}
	if opt.Workers < 0 {
		return nil, nil, fmt.Errorf("workload: workers must be positive, got %d", opt.Workers)
	}
	if opt.Oracle == nil {
		return nil, nil, fmt.Errorf("workload: SimOptions.Oracle is required")
	}
	// The ready queue is the live daemon's Scheduler, sized so it never
	// sheds: the model has no admission bound.
	ready, err := server.NewScheduler(opt.Policy, len(sched.Requests))
	if err != nil {
		return nil, nil, err
	}

	// Predicted service demand per distinct (class, pool index), and the
	// one server.Request per class that is all the policies read of one.
	type classInfo struct {
		spec Class
		req  *server.Request
	}
	classes := make(map[string]classInfo, len(sched.Spec.Classes))
	for _, c := range sched.Spec.Classes {
		class, ok := server.ClassByName(c.Name)
		if !ok {
			return nil, nil, fmt.Errorf("workload: unknown class %q", c.Name)
		}
		classes[c.Name] = classInfo{spec: c, req: &server.Request{Class: class}}
	}
	costCache := make(map[string]int64)
	jobs := make([]*simJob, len(sched.Requests))
	for i := range sched.Requests {
		r := &sched.Requests[i]
		cls, ok := classes[r.Class]
		if !ok {
			return nil, nil, fmt.Errorf("workload: request %d names class %q absent from spec", r.Seq, r.Class)
		}
		key := r.Key()
		us, ok := costCache[key]
		if !ok {
			cfg, err := cls.spec.Config(r.PoolIndex)
			if err != nil {
				return nil, nil, err
			}
			sec, err := core.PredictCostWith(opt.Oracle, cfg, r.Steps)
			if err != nil {
				return nil, nil, err
			}
			if us = int64(sec * 1e6); us < 1 {
				us = 1
			}
			costCache[key] = us
		}
		// Seq is the position in arrival order, so a popped job finds its
		// simJob by index.
		jobs[i] = &simJob{
			Job: server.Job{Request: cls.req, Cost: float64(us), Seq: uint64(i)},
			req: r,
		}
	}

	// Event loop: dispatch whenever a worker is free and the ready queue is
	// non-empty; otherwise advance the clock to the next completion or
	// arrival.  Completions at time t land before arrivals at t, so a
	// freed worker is visible to a simultaneous arrival — and both orders
	// are fixed, so the walk is deterministic.
	var busy []*simJob // in service, by completion time then arrival sequence
	var clock int64
	free := opt.Workers
	next := 0 // next arrival index
	done := make([]*simJob, 0, len(jobs))
	res := &SimResult{Policy: ready.Name(), Workers: opt.Workers, Requests: len(jobs)}

	for len(done) < len(jobs) {
		if free > 0 && ready.Depth() > 0 {
			popped, _ := ready.Pop()
			j := jobs[popped.Seq]
			free--
			j.doneUS = clock + int64(j.Cost)
			at, _ := slices.BinarySearchFunc(busy, j, func(b, j *simJob) int {
				return cmp.Or(cmp.Compare(b.doneUS, j.doneUS), cmp.Compare(b.Seq, j.Seq))
			})
			busy = slices.Insert(busy, at, j)
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
			return nil, nil, fmt.Errorf("workload: simulation stalled with %d jobs incomplete", len(jobs)-len(done))
		}
		for len(busy) > 0 && busy[0].doneUS == clock {
			done = append(done, busy[0])
			busy = busy[1:]
			free++
		}
		for next < len(jobs) && jobs[next].req.AtUS == clock {
			ready.Push(&jobs[next].Job)
			next++
		}
	}
	if len(done) > 0 {
		res.MakespanUS = done[len(done)-1].doneUS
	}
	return done, res, nil
}
