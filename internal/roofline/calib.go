// Package roofline predicts end-to-end AGCM run time on a machine.Model —
// the same description the simulator charges — as the roofline bound
// max(flops/FlopRate, bytes/MemBandwidth) per compute kernel and the model's
// message terms for the network, each divided by the model's efficiency for
// that kernel's class.
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

// Class is a kernel class: which of a model's efficiencies divides a
// kernel's roofline time, and the fit's coefficient index.
type Class uint8

// Kernel classes, in the canonical coefficient order used by the fit.
const (
	ClassDynamics Class = iota
	ClassPhysics
	ClassFilterConv
	ClassFilterFFT
	ClassNetwork
	NumClasses
)

var classNames = [NumClasses]string{"dynamics", "physics", "filter-conv", "filter-fft", "network"}

// String returns the class's name.
func (c Class) String() string {
	if c < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// eff returns the field of e that holds the class's efficiency: the one
// place a class meets machine.Efficiencies, for reading and for writing.
func (c Class) eff(e *machine.Efficiencies) *float64 {
	return [NumClasses]*float64{&e.Dynamics, &e.Physics, &e.FilterConv, &e.FilterFFT, &e.Network}[c]
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
