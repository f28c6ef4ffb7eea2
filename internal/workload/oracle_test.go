package workload

import (
	"fmt"
	"reflect"
	"testing"

	"agcm/internal/core"
)

type fixedOracle struct {
	seconds float64
	err     error
	calls   int
}

func (o *fixedOracle) PredictSeconds(cfg core.Config, steps int) (float64, error) {
	o.calls++
	if o.err != nil {
		return 0, o.err
	}
	return o.seconds * float64(steps), nil
}

// TestSimulateUsesInjectedOracle checks the SimOptions.Oracle seam: the
// what-if runs on the injected predictor's prices.
func TestSimulateUsesInjectedOracle(t *testing.T) {
	sched := schedulingSchedule(t)
	modelled, err := Simulate(sched, SimOptions{Policy: "sjf", Oracle: paragon(t)})
	if err != nil {
		t.Fatal(err)
	}
	oracle := &fixedOracle{seconds: 0.5}
	priced, err := Simulate(sched, SimOptions{Policy: "sjf", Oracle: oracle})
	if err != nil {
		t.Fatal(err)
	}
	if oracle.calls == 0 {
		t.Fatal("injected oracle never consulted")
	}
	if reflect.DeepEqual(modelled, priced) {
		t.Fatal("oracle prices did not reach the simulation")
	}
	// At negligible service demand nothing queues: slowdown collapses to ~1.
	idle, err := Simulate(sched, SimOptions{Policy: "fcfs", Oracle: &fixedOracle{seconds: 1e-3}})
	if err != nil {
		t.Fatal(err)
	}
	if idle.MaxClassSlowdown > 1.5 {
		t.Fatalf("unloaded system still shows slowdown %.2f", idle.MaxClassSlowdown)
	}
	// Still deterministic with an oracle installed.
	again, err := Simulate(sched, SimOptions{Policy: "sjf", Oracle: &fixedOracle{seconds: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(priced, again) {
		t.Fatal("oracle-priced simulation is not deterministic")
	}
}

func TestSimulateSurfacesOracleErrors(t *testing.T) {
	sched := schedulingSchedule(t)
	oracle := &fixedOracle{err: fmt.Errorf("no calibration")}
	if _, err := Simulate(sched, SimOptions{Policy: "sjf", Oracle: oracle}); err == nil {
		t.Fatal("oracle error swallowed: the what-if would silently misprice")
	}
}
