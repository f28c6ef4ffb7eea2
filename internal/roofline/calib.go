// Package roofline describes machines by a small calibration struct — a
// per-rank flops ceiling, a memory-bandwidth ceiling, network injection
// bandwidth and latency, and per-kernel-class efficiency factors — and
// predicts per-phase and end-to-end AGCM run time as the roofline bound
// max(flops/peak, bytes/bandwidth) scaled by the fitted efficiencies.
//
// Unlike the linear machine models in internal/machine, which are calibrated
// point fits to the paper's 1996 tables and can describe only those three
// computers, a roofline calibration is observable on any machine — including
// the host CPU this process runs on: run benchmarks, fit the efficiency
// coefficients by least squares (Fit, deterministic for any sample insertion
// order), and the fitted Calib predicts configurations it never measured.
// The closed observe → predict → calibrate loop has two halves: the
// `roofline` experiment fits every machine model against its simulated grid
// (bit-deterministic, a section of the committed RESULTS.txt that CI diffs,
// so model drift fails the build), and `agcmbench -calibrate` times real
// runs on the host and writes the fitted Calib for `agcmd -calib`.
//
// Everything in this package is a pure function of its inputs: kernel
// operation counts are derived analytically from grid dimensions, the fit
// sorts its samples into a canonical order before accumulating, and the
// calibration struct has a canonical JSON form (fixed field order, unknown
// fields rejected, SHA-256 hashable) following the core.Config discipline.
package roofline

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Aggregate says how per-rank kernel counts combine into a machine time.
const (
	// AggregateMaxRank charges the critical path: the largest subdomain's
	// counts, the way the distributed machines run (all ranks in parallel,
	// the slowest one sets the pace).
	AggregateMaxRank = "max-rank"
	// AggregateSum charges the whole machine's counts on one clock: the way
	// the host CPU executes the virtual machine, where every rank's work
	// shares the same cores and the wall time tracks the total.
	AggregateSum = "sum"
)

// Efficiencies are the fitted per-kernel-class efficiency factors: the
// fraction of the roofline bound a kernel class actually sustains on the
// machine (an MFU-style number, normally in (0, 1]).  A value above 1 means
// the analytic operation counts overestimate that kernel's work; the fit
// reports what the observations support either way.
type Efficiencies struct {
	Dynamics   float64 `json:"dynamics"`
	Physics    float64 `json:"physics"`
	FilterConv float64 `json:"filter_conv"`
	FilterFFT  float64 `json:"filter_fft"`
	Network    float64 `json:"network"`
}

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

// ByClass returns the efficiency for a kernel class (1 for unknown names, so
// an unclassified kernel is charged the raw roofline bound).
func (e Efficiencies) ByClass(class string) float64 {
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

// withClass returns a copy with the named class's efficiency replaced.
func (e Efficiencies) withClass(class string, v float64) Efficiencies {
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

// Calib is a roofline machine description: the ceilings a perfect kernel
// could reach and the fitted efficiencies real kernels do reach.  It is the
// unit of calibration — small enough to observe on any machine, rich enough
// to predict any AGCM configuration on it.
type Calib struct {
	// Name identifies the machine ("Intel Paragon", "host", ...).
	Name string `json:"name"`
	// Aggregate is AggregateMaxRank (distributed critical path) or
	// AggregateSum (all ranks' work on one clock, the host's view).
	Aggregate string `json:"aggregate"`
	// FlopsPerSec is the per-rank floating-point ceiling in flop/s.
	FlopsPerSec float64 `json:"flops_per_sec"`
	// BytesPerSec is the per-rank memory-bandwidth ceiling in byte/s.
	BytesPerSec float64 `json:"bytes_per_sec"`
	// NetBytesPerSec is the network injection bandwidth in byte/s.
	NetBytesPerSec float64 `json:"net_bytes_per_sec"`
	// NetLatencySec is the per-message network latency in seconds.
	NetLatencySec float64 `json:"net_latency_s"`
	// MsgOverheadSec is the per-message CPU occupancy (send plus receive
	// software overhead) in seconds.
	MsgOverheadSec float64 `json:"msg_overhead_s"`
	// Eff are the fitted per-kernel-class efficiency factors.
	Eff Efficiencies `json:"efficiency"`
}

// Validate reports an error if the calibration cannot price work.
func (c Calib) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("roofline: calib needs a name")
	case c.Aggregate != AggregateMaxRank && c.Aggregate != AggregateSum:
		return fmt.Errorf("roofline: calib %q: aggregate must be %q or %q, got %q",
			c.Name, AggregateMaxRank, AggregateSum, c.Aggregate)
	case c.FlopsPerSec <= 0:
		return fmt.Errorf("roofline: calib %q: flops ceiling must be positive", c.Name)
	case c.BytesPerSec <= 0:
		return fmt.Errorf("roofline: calib %q: bandwidth ceiling must be positive", c.Name)
	case c.NetBytesPerSec <= 0:
		return fmt.Errorf("roofline: calib %q: network bandwidth must be positive", c.Name)
	case c.NetLatencySec < 0 || c.MsgOverheadSec < 0:
		return fmt.Errorf("roofline: calib %q: network overheads must be non-negative", c.Name)
	}
	for _, class := range Classes {
		if c.Eff.ByClass(class) <= 0 {
			return fmt.Errorf("roofline: calib %q: efficiency %s must be positive", c.Name, class)
		}
	}
	return nil
}

// CanonicalJSON returns the calibration's canonical encoding: a fixed field
// set in a fixed order with no omitted fields, so the byte layout is fully
// determined by the values — the same discipline as core.Config.CanonicalJSON,
// and the reason a fitted machine can be committed, diffed, and hashed.
func (c Calib) CanonicalJSON() ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(c)
}

// Hash returns the SHA-256 of the canonical encoding as lowercase hex: the
// content address of this machine description.
func (c Calib) Hash() (string, error) {
	raw, err := c.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// ParseCalib decodes a calibration from JSON, rejecting unknown fields — a
// misspelled field in a fitted-machine file must fail loudly, not silently
// leave a ceiling at zero.
func ParseCalib(data []byte) (Calib, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Calib
	if err := dec.Decode(&c); err != nil {
		return Calib{}, fmt.Errorf("roofline: decoding calib: %w", err)
	}
	if dec.More() {
		return Calib{}, fmt.Errorf("roofline: trailing data after calib")
	}
	if err := c.Validate(); err != nil {
		return Calib{}, err
	}
	return c, nil
}
