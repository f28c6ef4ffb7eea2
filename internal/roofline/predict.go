package roofline

import (
	"fmt"

	"agcm/internal/core"
)

// PhaseTime is one kernel's predicted time and which ceiling bound it.
type PhaseTime struct {
	Name    string  `json:"name"`
	Class   string  `json:"class"`
	Seconds float64 `json:"seconds"` // per step, after efficiency scaling
	// Bound is "flops", "memory" or "network" — which roofline ceiling the
	// kernel hit.
	Bound string `json:"bound"`
	// Intensity is the kernel's arithmetic intensity in flop/byte (0 for
	// the network kernel).
	Intensity float64 `json:"intensity"`
}

// Prediction is a machine's predicted cost breakdown for one configuration.
type Prediction struct {
	Machine     string      `json:"machine"`
	Steps       int         `json:"steps"` // charged steps (measured + warmup)
	Phases      []PhaseTime `json:"phases"`
	StepSeconds float64     `json:"step_seconds"`
	Seconds     float64     `json:"seconds"` // StepSeconds * Steps
}

// Machine predicts run times from a calibration.  It implements
// core.CostOracle, so it can drive the sjf scheduler and the workload
// simulator directly.
type Machine struct{ calib Calib }

// NewMachine validates the calibration and returns its predictor.
func NewMachine(c Calib) (*Machine, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &Machine{calib: c}, nil
}

// Calib returns the machine's calibration.
func (m *Machine) Calib() Calib { return m.calib }

// Name implements core.CostOracle.
func (m *Machine) Name() string { return "roofline:" + m.calib.Name }

// Predict returns the per-phase and end-to-end predicted time of running cfg
// for measuredSteps measured steps on this machine: each compute kernel is
// charged max(flops/peak, bytes/bandwidth), the network kernel is charged
// messages*(latency+overhead) + bytes/injection, and each charge is divided
// by the fitted efficiency of its class.
func (m *Machine) Predict(cfg core.Config, measuredSteps int) (*Prediction, error) {
	counts, err := CountKernels(cfg, measuredSteps)
	if err != nil {
		return nil, err
	}
	c := m.calib
	// A degraded rank is the critical path of a machine that runs at its
	// slowest rank's pace.  A machine that sums all ranks' work on one clock
	// (the host) pays the same real time for a degraded simulation as for a
	// healthy one.
	degrade := 1.0
	if c.Aggregate == AggregateMaxRank {
		degrade = counts.Degrade
	}
	pred := &Prediction{Machine: c.Name, Steps: counts.Steps}
	for _, k := range counts.Kernels {
		flops, bytes := k.CPFlops, k.CPBytes
		msgs, netBytes := k.CPMsgs, k.CPNetBytes
		if c.Aggregate == AggregateSum {
			flops, bytes = k.TotalFlops, k.TotalBytes
			msgs, netBytes = k.TotalMsgs, k.TotalNetBytes
		}
		var t float64
		var bound string
		if k.Class == ClassNetwork {
			t = msgs*(c.NetLatencySec+c.MsgOverheadSec) + netBytes/c.NetBytesPerSec
			bound = "network"
		} else {
			ft := flops / c.FlopsPerSec
			bt := bytes / c.BytesPerSec
			if ft >= bt {
				t, bound = ft, "flops"
			} else {
				t, bound = bt, "memory"
			}
		}
		t = t / c.Eff.ByClass(k.Class) * degrade
		pred.Phases = append(pred.Phases, PhaseTime{
			Name: k.Name, Class: k.Class, Seconds: t, Bound: bound,
			Intensity: intensityOrZero(k),
		})
		pred.StepSeconds += t
	}
	pred.Seconds = pred.StepSeconds * float64(pred.Steps)
	return pred, nil
}

func intensityOrZero(k Kernel) float64 {
	if k.Class == ClassNetwork || k.CPBytes == 0 {
		return 0
	}
	return k.CPFlops / k.CPBytes
}

// PredictSeconds implements core.CostOracle.
func (m *Machine) PredictSeconds(cfg core.Config, measuredSteps int) (float64, error) {
	p, err := m.Predict(cfg, measuredSteps)
	if err != nil {
		return 0, err
	}
	if p.Seconds <= 0 {
		return 0, fmt.Errorf("roofline: non-positive prediction for %q", m.calib.Name)
	}
	return p.Seconds, nil
}

// RawSeconds returns the per-class predicted seconds at unit efficiency —
// the fit's design-matrix row for one configuration: the observed time is
// modelled as sum over classes of raw[class]/eff[class].  Indexed in
// canonical Classes order.
func RawSeconds(c Calib, cfg core.Config, measuredSteps int) ([NumClasses]float64, error) {
	var raw [NumClasses]float64
	unit := c
	unit.Eff = Efficiencies{Dynamics: 1, Physics: 1, FilterConv: 1, FilterFFT: 1, Network: 1}
	m, err := NewMachine(unit)
	if err != nil {
		return raw, err
	}
	p, err := m.Predict(cfg, measuredSteps)
	if err != nil {
		return raw, err
	}
	for _, ph := range p.Phases {
		for i, class := range Classes {
			if ph.Class == class {
				raw[i] += ph.Seconds * float64(p.Steps)
			}
		}
	}
	return raw, nil
}
