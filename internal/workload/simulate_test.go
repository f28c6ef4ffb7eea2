package workload

import (
	"reflect"
	"testing"

	"agcm/internal/machine"
	"agcm/internal/roofline"
	"agcm/internal/server"
)

// paragon is the oracle the scheduling experiment prices with: the roofline
// model of the machine the scheduling spec's templates name.
func paragon(t *testing.T) *roofline.Machine {
	t.Helper()
	m, err := roofline.NewMachine(roofline.FromModel(machine.Paragon()))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func schedulingSchedule(t *testing.T) *Schedule {
	t.Helper()
	sched, err := Generate(SchedulingSpec())
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

func TestSimulateDeterministic(t *testing.T) {
	sched := schedulingSchedule(t)
	for _, policy := range server.SchedulerNames() {
		a, err := Simulate(sched, SimOptions{Policy: policy, Oracle: paragon(t)})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Simulate(sched, SimOptions{Policy: policy, Oracle: paragon(t)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("policy %s: repeated simulation differs", policy)
		}
	}
}

func TestSimulateCompletesEveryRequest(t *testing.T) {
	sched := schedulingSchedule(t)
	for _, policy := range server.SchedulerNames() {
		res, err := Simulate(sched, SimOptions{Policy: policy, Workers: 2, Oracle: paragon(t)})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, c := range res.Classes {
			total += c.Requests
		}
		if total != len(sched.Requests) || res.Requests != len(sched.Requests) {
			t.Fatalf("policy %s: %d of %d requests completed", policy, total, len(sched.Requests))
		}
		if res.MakespanUS <= sched.Requests[len(sched.Requests)-1].AtUS {
			t.Fatalf("policy %s: makespan %d before last arrival", policy, res.MakespanUS)
		}
	}
}

func TestSimulateSJFImprovesInteractiveP95(t *testing.T) {
	sched := schedulingSchedule(t)
	fcfs, err := Simulate(sched, SimOptions{Policy: "fcfs", Oracle: paragon(t)})
	if err != nil {
		t.Fatal(err)
	}
	sjf, err := Simulate(sched, SimOptions{Policy: "sjf", Oracle: paragon(t)})
	if err != nil {
		t.Fatal(err)
	}
	fi, si := fcfs.Class("interactive"), sjf.Class("interactive")
	if fi.Requests == 0 || si.Requests == 0 {
		t.Fatal("interactive class missing from results")
	}
	if si.P95US > fi.P95US {
		t.Fatalf("sjf interactive p95 %dus worse than fcfs %dus", si.P95US, fi.P95US)
	}
	// The reference spec is tuned so the gap is substantial, not marginal;
	// catching a regression that erodes it matters for the scheduling
	// experiment.
	if float64(si.P95US) > 0.75*float64(fi.P95US) {
		t.Fatalf("sjf interactive p95 %dus did not improve meaningfully on fcfs %dus", si.P95US, fi.P95US)
	}
	if sjf.MaxClassSlowdown >= fcfs.MaxClassSlowdown {
		t.Fatalf("sjf max-class-slowdown %.2f not below fcfs %.2f", sjf.MaxClassSlowdown, fcfs.MaxClassSlowdown)
	}
}

// TestSimulateFCFSSingleWorkerPreservesArrivalOrder pins the fcfs policy's
// defining property in the model: with one worker it is pure FIFO — every
// request waits exactly for its predecessors.
func TestSimulateFCFSSingleWorkerPreservesArrivalOrder(t *testing.T) {
	spec := Spec{
		Requests: 50,
		Arrival:  Arrival{RatePerSec: 100},
		Classes:  []Class{{Name: "interactive"}},
	}
	sched, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(sched, SimOptions{Policy: "fcfs", Workers: 1, Oracle: paragon(t)})
	if err != nil {
		t.Fatal(err)
	}
	// All jobs identical: under FIFO the makespan is exactly first-start +
	// n*service (the server never idles once the queue is non-empty).
	svc := res.Classes[0].MeanServiceUS
	want := sched.Requests[0].AtUS + int64(len(sched.Requests))*svc
	if res.MakespanUS != want {
		t.Fatalf("fcfs single-worker makespan %d, want %d", res.MakespanUS, want)
	}
}

func TestSimulatePriorityFavorsInteractive(t *testing.T) {
	sched := schedulingSchedule(t)
	fcfs, err := Simulate(sched, SimOptions{Policy: "fcfs", Oracle: paragon(t)})
	if err != nil {
		t.Fatal(err)
	}
	prio, err := Simulate(sched, SimOptions{Policy: "priority", Oracle: paragon(t)})
	if err != nil {
		t.Fatal(err)
	}
	if prio.Class("interactive").MeanLatencyUS >= fcfs.Class("interactive").MeanLatencyUS {
		t.Fatal("priority policy did not reduce interactive mean latency under load")
	}
}

func TestSimulateRejectsUnknownPolicy(t *testing.T) {
	sched := schedulingSchedule(t)
	if _, err := Simulate(sched, SimOptions{Policy: "lifo", Oracle: paragon(t)}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestSimulateRequiresOracle: there is no hidden default predictor — a what-if
// that does not say what machine it is about is an error.
func TestSimulateRequiresOracle(t *testing.T) {
	if _, err := Simulate(schedulingSchedule(t), SimOptions{Policy: "sjf"}); err == nil {
		t.Fatal("nil oracle accepted")
	}
}
