package roofline

import (
	"fmt"

	"agcm/internal/core"
	"agcm/internal/machine"
)

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

// price is the one pricing loop: it hands add each kernel's class and
// seconds per charged step, in kernel order.  A compute kernel is charged
// max(flops/FlopRate, bytes/MemBandwidth), the network kernel
// messages*(Latency+SendOverhead+RecvOverhead) + bytes/Bandwidth, and each
// charge is divided by the model's efficiency for the kernel's class.
func (m *Machine) price(counts Counts, add func(Class, float64)) {
	c := &m.model
	// A degraded rank is the critical path of a machine that runs at its
	// slowest rank's pace.  A machine that sums all ranks' work on one clock
	// (the host) pays the same real time for a degraded simulation as for a
	// healthy one.
	degrade := 1.0
	if c.Aggregate == machine.AggregateMaxRank {
		degrade = counts.Degrade
	}
	for _, k := range counts.Kernels {
		flops, bytes := k.CPFlops, k.CPBytes
		msgs, netBytes := k.CPMsgs, k.CPNetBytes
		if c.Aggregate == machine.AggregateSum {
			flops, bytes = k.TotalFlops, k.TotalBytes
			msgs, netBytes = k.TotalMsgs, k.TotalNetBytes
		}
		var t float64
		if k.Class == ClassNetwork {
			t = msgs*(c.Latency+(c.SendOverhead+c.RecvOverhead)) + netBytes/c.Bandwidth
		} else if ft, bt := flops/c.FlopRate, bytes/c.MemBandwidth; ft >= bt {
			t = ft
		} else {
			t = bt
		}
		add(k.Class, t / *k.Class.eff(&c.Eff) * degrade)
	}
}

// PredictSeconds implements core.CostOracle: the kernels' seconds per
// charged step, summed in kernel order, times the charged step count
// (measured plus warmup).
func (m *Machine) PredictSeconds(cfg core.Config, measuredSteps int) (float64, error) {
	counts, err := CountKernels(cfg, measuredSteps)
	if err != nil {
		return 0, err
	}
	var step float64
	m.price(counts, func(_ Class, t float64) { step += t })
	s := step * float64(counts.Steps)
	if s <= 0 {
		return 0, fmt.Errorf("roofline: non-positive prediction for %q", m.model.Name)
	}
	return s, nil
}

// RawSeconds returns the per-class predicted seconds over every charged step
// at unit efficiency — the fit's design-matrix row for one configuration:
// the observed time is modelled as sum over classes of raw[class]/eff[class].
func RawSeconds(model *machine.Model, cfg core.Config, measuredSteps int) ([NumClasses]float64, error) {
	var raw [NumClasses]float64
	unit := *model
	unit.Eff = machine.Unit
	m, err := NewMachine(&unit)
	if err != nil {
		return raw, err
	}
	counts, err := CountKernels(cfg, measuredSteps)
	if err != nil {
		return raw, err
	}
	steps := float64(counts.Steps)
	m.price(counts, func(c Class, t float64) { raw[c] += t * steps })
	return raw, nil
}
