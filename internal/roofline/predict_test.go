package roofline

import (
	"math"
	"slices"
	"testing"

	"agcm/internal/core"
	"agcm/internal/machine"
)

func TestNewMachineValidates(t *testing.T) {
	if _, err := NewMachine(validCalib()); err != nil {
		t.Fatal(err)
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

// TestPredictBreakdown: the pricing loop charges every kernel a positive
// time under its own class, in kernel order, and PredictSeconds is their
// per-step sum over every charged step.
func TestPredictBreakdown(t *testing.T) {
	m, err := NewMachine(validCalib())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2, 4, core.FilterFFTBalanced)
	counts, err := CountKernels(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if counts.Steps != 5 {
		t.Fatalf("charged steps = %d, want 5", counts.Steps)
	}
	var classes []Class
	var step float64
	m.price(counts, func(c Class, s float64) {
		if s <= 0 {
			t.Fatalf("class %s predicted non-positive time", c)
		}
		classes = append(classes, c)
		step += s
	})
	want := []Class{ClassDynamics, ClassPhysics, ClassFilterFFT, ClassNetwork}
	if !slices.Equal(classes, want) {
		t.Fatalf("priced classes %v, want %v", classes, want)
	}
	got, err := m.PredictSeconds(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-step*5) > 1e-12*got {
		t.Fatalf("PredictSeconds %g != step seconds %g x 5", got, step)
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
	pcp, err := mcp.PredictSeconds(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	psum, err := msum.PredictSeconds(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Eight ranks' total work on one clock must dominate the critical path.
	if psum <= pcp {
		t.Fatalf("sum aggregate %g not above max-rank %g", psum, pcp)
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
		p0, err := m.PredictSeconds(base, 2)
		if err != nil {
			t.Fatal(err)
		}
		p1, err := m.PredictSeconds(deg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p1-tc.want*p0) > 1e-9*p1 {
			t.Errorf("%s: degraded prediction %g, want %g x healthy %g",
				tc.aggregate, p1, tc.want, p0)
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
	p, err := m.PredictSeconds(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := PredictSample(c.Eff, raw)
	if math.Abs(got-p) > 1e-9*p {
		t.Fatalf("PredictSample over RawSeconds %g != PredictSeconds %g", got, p)
	}
	// And with the degrade factor the identity must still hold.
	deg := cfg
	deg.DegradeRank = 1
	deg.DegradeFactor = 3
	rawDeg, err := RawSeconds(c, deg, 2)
	if err != nil {
		t.Fatal(err)
	}
	pDeg, err := m.PredictSeconds(deg, 2)
	if err != nil {
		t.Fatal(err)
	}
	gotDeg := PredictSample(c.Eff, rawDeg)
	if math.Abs(gotDeg-pDeg) > 1e-9*pDeg {
		t.Fatalf("degraded PredictSample %g != PredictSeconds %g", gotDeg, pDeg)
	}
}
