package roofline

import (
	"math"
	"testing"

	"agcm/internal/core"
	"agcm/internal/machine"
)

func TestNewMachineValidates(t *testing.T) {
	m, err := NewMachine(validCalib())
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "roofline:test" {
		t.Fatalf("oracle name %q", m.Name())
	}
	// The predictor keeps its own copy: editing the model afterwards does
	// not move its prices.
	in := validCalib()
	own, err := NewMachine(in)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2, 2, core.FilterFFT)
	before, err := own.PredictSeconds(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	in.FlopRate *= 10
	if after, _ := own.PredictSeconds(cfg, 2); after != before {
		t.Fatalf("prediction moved from %g to %g with the caller's model", before, after)
	}
	if _, err := NewMachine(&machine.Model{}); err == nil {
		t.Fatal("NewMachine accepted the zero model")
	}
}

func TestPredictBreakdown(t *testing.T) {
	m, err := NewMachine(validCalib())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2, 4, core.FilterFFTBalanced)
	p, err := m.Predict(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Steps != 5 {
		t.Fatalf("charged steps = %d, want 5", p.Steps)
	}
	var sum float64
	for _, ph := range p.Phases {
		if ph.Seconds <= 0 {
			t.Fatalf("phase %s predicted non-positive time", ph.Name)
		}
		switch ph.Class {
		case ClassNetwork:
			if ph.Bound != "network" {
				t.Fatalf("network phase bound %q", ph.Bound)
			}
		default:
			if ph.Bound != "flops" && ph.Bound != "memory" {
				t.Fatalf("compute phase %s bound %q", ph.Name, ph.Bound)
			}
			if ph.Intensity <= 0 {
				t.Fatalf("compute phase %s has no intensity", ph.Name)
			}
		}
		sum += ph.Seconds
	}
	if math.Abs(sum-p.StepSeconds) > 1e-12*p.StepSeconds {
		t.Fatalf("phases sum %g != StepSeconds %g", sum, p.StepSeconds)
	}
	if math.Abs(p.Seconds-p.StepSeconds*float64(p.Steps)) > 1e-12*p.Seconds {
		t.Fatalf("Seconds %g != StepSeconds*Steps %g", p.Seconds, p.StepSeconds*float64(p.Steps))
	}
}

func TestPredictAggregateSumChargesTotalWork(t *testing.T) {
	cp := validCalib()
	sum := *cp
	sum.Aggregate = machine.AggregateSum
	mcp, err := NewMachine(cp)
	if err != nil {
		t.Fatal(err)
	}
	msum, err := NewMachine(&sum)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2, 4, core.FilterFFTBalanced)
	pcp, err := mcp.Predict(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	psum, err := msum.Predict(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Eight ranks' total work on one clock must dominate the critical path.
	if psum.Seconds <= pcp.Seconds {
		t.Fatalf("sum aggregate %g not above max-rank %g", psum.Seconds, pcp.Seconds)
	}
}

// TestPredictDegradeFactor: DegradeRank slows one virtual processor.  A
// machine paced by its slowest rank pays the factor; a machine that sums
// every rank's work on one clock (the host) pays the same real time as for
// the healthy twin.
func TestPredictDegradeFactor(t *testing.T) {
	base := testConfig(2, 2, core.FilterFFT)
	deg := base
	deg.DegradeRank = 0
	deg.DegradeFactor = 2.5
	for _, tc := range []struct {
		aggregate string
		want      float64
	}{
		{machine.AggregateMaxRank, 2.5},
		{machine.AggregateSum, 1},
	} {
		calib := validCalib()
		calib.Aggregate = tc.aggregate
		m, err := NewMachine(calib)
		if err != nil {
			t.Fatal(err)
		}
		p0, err := m.Predict(base, 2)
		if err != nil {
			t.Fatal(err)
		}
		p1, err := m.Predict(deg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p1.Seconds-tc.want*p0.Seconds) > 1e-9*p1.Seconds {
			t.Errorf("%s: degraded prediction %g, want %g x healthy %g",
				tc.aggregate, p1.Seconds, tc.want, p0.Seconds)
		}
	}
}

func TestPredictSecondsIsACostOracle(t *testing.T) {
	m, err := NewMachine(validCalib())
	if err != nil {
		t.Fatal(err)
	}
	var oracle core.CostOracle = m // compile-time interface check, used below
	s, err := oracle.PredictSeconds(testConfig(1, 1, core.FilterFFT), 2)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Fatalf("non-positive prediction %g", s)
	}
	if _, err := oracle.PredictSeconds(core.Config{}, 2); err == nil {
		t.Fatal("oracle accepted the zero config")
	}
	if _, err := oracle.PredictSeconds(testConfig(1, 1, core.FilterFFT), 0); err == nil {
		t.Fatal("oracle accepted zero steps")
	}
}

func TestRawSecondsMatchesPrediction(t *testing.T) {
	c := validCalib()
	cfg := testConfig(2, 4, core.FilterFFTBalanced)
	raw, err := RawSeconds(c, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The design-matrix row at the calib's own efficiencies must reproduce
	// the machine's end-to-end prediction: that identity is what makes the
	// fitted model and the predictor the same model.
	m, err := NewMachine(c)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Predict(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := PredictSample(c.Eff, raw)
	if math.Abs(got-p.Seconds) > 1e-9*p.Seconds {
		t.Fatalf("PredictSample over RawSeconds %g != Predict %g", got, p.Seconds)
	}
	// And with the degrade factor the identity must still hold.
	deg := cfg
	deg.DegradeRank = 1
	deg.DegradeFactor = 3
	rawDeg, err := RawSeconds(c, deg, 2)
	if err != nil {
		t.Fatal(err)
	}
	pDeg, err := m.Predict(deg, 2)
	if err != nil {
		t.Fatal(err)
	}
	gotDeg := PredictSample(c.Eff, rawDeg)
	if math.Abs(gotDeg-pDeg.Seconds) > 1e-9*pDeg.Seconds {
		t.Fatalf("degraded PredictSample %g != Predict %g", gotDeg, pDeg.Seconds)
	}
}
