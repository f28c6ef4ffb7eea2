// Package roofline predicts per-phase and end-to-end AGCM run time on a
// machine.Model — the same description the simulator charges — as the
// roofline bound max(flops/FlopRate, bytes/MemBandwidth) per compute kernel
// and the model's message terms for the network, each divided by the model's
// efficiency for that kernel class.
//
// A model is observable on any machine, including the host CPU this process
// runs on: run benchmarks, fit the efficiency coefficients by least squares
// (Fit, deterministic for any sample insertion order), and the fitted model
// predicts configurations it never measured.  The closed observe → predict →
// calibrate loop has two halves: the `roofline` experiment fits every machine
// model against its simulated grid (bit-deterministic, a section of the
// committed RESULTS.txt that CI diffs, so model drift fails the build), and
// `agcmbench -calibrate` times real runs on the host and writes the fitted
// model for `agcmd -calib`.
//
// Everything in this package is a pure function of its inputs: kernel
// operation counts are derived analytically from grid dimensions, the fit
// sorts its samples into a canonical order before accumulating, and a
// calibration file is a model's canonical JSON (machine.Model.CanonicalJSON),
// read back strictly by ParseCalib.
package roofline

import (
	"bytes"
	"encoding/json"
	"fmt"

	"agcm/internal/machine"
)

// Kernel classes, in the canonical coefficient order used by the fit.
const (
	ClassDynamics   = "dynamics"
	ClassPhysics    = "physics"
	ClassFilterConv = "filter-conv"
	ClassFilterFFT  = "filter-fft"
	ClassNetwork    = "network"
)

// Classes lists the kernel classes in canonical (fit coefficient) order.
var Classes = []string{ClassDynamics, ClassPhysics, ClassFilterConv, ClassFilterFFT, ClassNetwork}

// NumClasses is len(Classes), the fit's coefficient count.
const NumClasses = 5

// efficiency returns the efficiency for a kernel class (1 for unknown
// names, so an unclassified kernel is charged the raw roofline bound).
func efficiency(e machine.Efficiencies, class string) float64 {
	switch class {
	case ClassDynamics:
		return e.Dynamics
	case ClassPhysics:
		return e.Physics
	case ClassFilterConv:
		return e.FilterConv
	case ClassFilterFFT:
		return e.FilterFFT
	case ClassNetwork:
		return e.Network
	}
	return 1
}

// withEfficiency returns a copy with the named class's efficiency replaced.
func withEfficiency(e machine.Efficiencies, class string, v float64) machine.Efficiencies {
	switch class {
	case ClassDynamics:
		e.Dynamics = v
	case ClassPhysics:
		e.Physics = v
	case ClassFilterConv:
		e.FilterConv = v
	case ClassFilterFFT:
		e.FilterFFT = v
	case ClassNetwork:
		e.Network = v
	}
	return e
}

// ParseCalib decodes a calibration file — a machine model in JSON, as
// `agcmbench -calibrate` writes it — rejecting unknown fields and trailing
// data: a misspelled field in a fitted-machine file must fail loudly, not
// silently leave a rate at zero.
func ParseCalib(data []byte) (*machine.Model, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m machine.Model
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("roofline: decoding calib: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("roofline: trailing data after calib")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// DefaultHost is machine.Host(): the built-in host calibration a server
// prices with when it is given none.  The benchmark module's probes call it
// by this name.
func DefaultHost() *machine.Model { return machine.Host() }
