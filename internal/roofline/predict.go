package roofline

import (
	"fmt"

	"agcm/internal/core"
	"agcm/internal/machine"
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

// Machine predicts run times from a machine model.  It implements
// core.CostOracle, so it can drive the sjf scheduler and the workload
// simulator directly.
type Machine struct{ model machine.Model }

// NewMachine validates the model and returns its predictor, which keeps its
// own copy.
func NewMachine(m *machine.Model) (*Machine, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Machine{model: *m}, nil
}

// Name implements core.CostOracle.
func (m *Machine) Name() string { return "roofline:" + m.model.Name }

// Predict returns the per-phase and end-to-end predicted time of running cfg
// for measuredSteps measured steps on this machine: each compute kernel is
// charged max(flops/FlopRate, bytes/MemBandwidth), the network kernel is
// charged messages*(Latency+SendOverhead+RecvOverhead) + bytes/Bandwidth,
// and each charge is divided by the model's efficiency for its class.
func (m *Machine) Predict(cfg core.Config, measuredSteps int) (*Prediction, error) {
	counts, err := CountKernels(cfg, measuredSteps)
	if err != nil {
		return nil, err
	}
	c := &m.model
	// A degraded rank is the critical path of a machine that runs at its
	// slowest rank's pace.  A machine that sums all ranks' work on one clock
	// (the host) pays the same real time for a degraded simulation as for a
	// healthy one.
	degrade := 1.0
	if c.Aggregate == machine.AggregateMaxRank {
		degrade = counts.Degrade
	}
	pred := &Prediction{Machine: c.Name, Steps: counts.Steps}
	for _, k := range counts.Kernels {
		flops, bytes := k.CPFlops, k.CPBytes
		msgs, netBytes := k.CPMsgs, k.CPNetBytes
		if c.Aggregate == machine.AggregateSum {
			flops, bytes = k.TotalFlops, k.TotalBytes
			msgs, netBytes = k.TotalMsgs, k.TotalNetBytes
		}
		var t float64
		var bound string
		if k.Class == ClassNetwork {
			t = msgs*(c.Latency+(c.SendOverhead+c.RecvOverhead)) + netBytes/c.Bandwidth
			bound = "network"
		} else {
			ft := flops / c.FlopRate
			bt := bytes / c.MemBandwidth
			if ft >= bt {
				t, bound = ft, "flops"
			} else {
				t, bound = bt, "memory"
			}
		}
		t = t / efficiency(c.Eff, k.Class) * degrade
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
		return 0, fmt.Errorf("roofline: non-positive prediction for %q", m.model.Name)
	}
	return p.Seconds, nil
}

// RawSeconds returns the per-class predicted seconds at unit efficiency —
// the fit's design-matrix row for one configuration: the observed time is
// modelled as sum over classes of raw[class]/eff[class].  Indexed in
// canonical Classes order.
func RawSeconds(model *machine.Model, cfg core.Config, measuredSteps int) ([NumClasses]float64, error) {
	var raw [NumClasses]float64
	unit := *model
	unit.Eff = machine.Unit
	m, err := NewMachine(&unit)
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
