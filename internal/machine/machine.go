// Package machine defines performance models of the distributed-memory
// computers used in the paper — the Intel Paragon, the Cray T3D and the IBM
// SP-2 — and of the host CPU this process runs on.  A Model is the one
// machine description: the sim package charges its rates for abstract work
// (flops, memory traffic, message bytes) in virtual seconds, and the roofline
// predictor (internal/roofline) prices the same rates, divided by the
// per-kernel-class efficiencies the Model carries.
//
// The paper machines' parameters are calibrated, not measured: sustained
// per-node flop rates were chosen so that the simulated one-node AGCM run
// lands near the paper's Table 4/6 single-node timings, and network
// parameters follow published characterizations of the machines.  The
// paper's conclusions are about ratios (speedups, component fractions,
// crossovers), which depend on the algorithms' operation and message counts
// rather than on these absolute constants.
package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Aggregate says how a run's ranks share the machine's clocks, which is how
// the roofline predictor combines their work.
const (
	// AggregateMaxRank charges the critical path: every rank on its own
	// node, the slowest one setting the pace.  The simulator runs every
	// machine this way.
	AggregateMaxRank = "max-rank"
	// AggregateSum charges the whole machine's work on one clock: the way
	// the host CPU executes the virtual machine, where every rank's work
	// shares the same cores and the wall time tracks the total.
	AggregateSum = "sum"
)

// Efficiencies are per-kernel-class factors: the fraction of the model's
// rates a kernel class actually sustains (an MFU-style number).  The
// simulator charges the rates as they stand — unit efficiency — and the
// roofline predictor divides each class's bound by its factor, so a fitted
// model predicts measured time.  A value above 1 means the analytic
// operation counts overestimate that kernel's work.
type Efficiencies struct {
	Dynamics   float64 `json:"dynamics"`
	Physics    float64 `json:"physics"`
	FilterConv float64 `json:"filter_conv"`
	FilterFFT  float64 `json:"filter_fft"`
	Network    float64 `json:"network"`
}

// Unit is every class at efficiency 1: the model's rates exactly as the
// simulator charges them.
var Unit = Efficiencies{Dynamics: 1, Physics: 1, FilterConv: 1, FilterFFT: 1, Network: 1}

// Model is a linear (LogGP-flavoured) machine performance model.  Its JSON
// form, in field order, is the canonical encoding (CanonicalJSON) and the
// calibration file `agcmbench -calibrate` writes and `agcmd -calib` reads.
type Model struct {
	// Name identifies the machine in reports, e.g. "Intel Paragon".
	Name string `json:"name"`

	// Aggregate is AggregateMaxRank or AggregateSum; only the roofline
	// predictor reads it.
	Aggregate string `json:"aggregate"`

	// FlopRate is the sustained floating-point rate of one node in
	// flop/s for compiled inner-loop code (far below peak, as the paper
	// observes for real-world codes).
	FlopRate float64 `json:"flops_per_sec"`

	// MemBandwidth is the effective main-memory bandwidth of one node in
	// byte/s, charged for cache-missing traffic.
	MemBandwidth float64 `json:"bytes_per_sec"`

	// SendOverhead and RecvOverhead are the per-message CPU occupancies
	// in seconds on the sender and receiver.
	SendOverhead float64 `json:"send_overhead_s"`
	RecvOverhead float64 `json:"recv_overhead_s"`

	// Latency is the network wire latency per message in seconds.
	Latency float64 `json:"net_latency_s"`

	// Bandwidth is the per-link network bandwidth in byte/s.
	Bandwidth float64 `json:"net_bytes_per_sec"`

	// Eff are the per-kernel-class efficiencies the roofline predictor
	// prices with; Unit for a machine whose rates are the ground truth.
	Eff Efficiencies `json:"efficiency"`
}

// FlopSeconds implements sim.CostModel.
func (m *Model) FlopSeconds(n float64) float64 { return n / m.FlopRate }

// MemSeconds implements sim.CostModel.
func (m *Model) MemSeconds(n float64) float64 { return n / m.MemBandwidth }

// SendOverheadSeconds implements sim.CostModel.
func (m *Model) SendOverheadSeconds(bytes int) float64 { return m.SendOverhead }

// RecvOverheadSeconds implements sim.CostModel.
func (m *Model) RecvOverheadSeconds(bytes int) float64 { return m.RecvOverhead }

// NetworkSeconds implements sim.CostModel.
func (m *Model) NetworkSeconds(bytes int) float64 {
	return m.Latency + float64(bytes)/m.Bandwidth
}

// String returns the machine name.
func (m *Model) String() string { return m.Name }

// Validate reports an error if the model cannot charge or price work.
func (m *Model) Validate() error {
	switch {
	case m.Name == "":
		return fmt.Errorf("machine: model needs a name")
	case m.Aggregate != AggregateMaxRank && m.Aggregate != AggregateSum:
		return fmt.Errorf("machine %q: aggregate must be %q or %q, got %q",
			m.Name, AggregateMaxRank, AggregateSum, m.Aggregate)
	case m.FlopRate <= 0:
		return fmt.Errorf("machine %q: FlopRate must be positive", m.Name)
	case m.MemBandwidth <= 0:
		return fmt.Errorf("machine %q: MemBandwidth must be positive", m.Name)
	case m.Bandwidth <= 0:
		return fmt.Errorf("machine %q: Bandwidth must be positive", m.Name)
	case m.Latency < 0 || m.SendOverhead < 0 || m.RecvOverhead < 0:
		return fmt.Errorf("machine %q: overheads must be non-negative", m.Name)
	}
	for _, e := range [...]float64{m.Eff.Dynamics, m.Eff.Physics, m.Eff.FilterConv, m.Eff.FilterFFT, m.Eff.Network} {
		if !(e > 0) {
			return fmt.Errorf("machine %q: efficiencies must be positive, got %+v", m.Name, m.Eff)
		}
	}
	return nil
}

// CanonicalJSON returns the model's canonical encoding: a fixed field set in
// a fixed order with no omitted fields, so the byte layout is fully
// determined by the values — the same discipline as core.Config, and the
// reason a fitted machine can be committed, diffed, and hashed.
func (m *Model) CanonicalJSON() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(m)
}

// Hash returns the SHA-256 of the canonical encoding as lowercase hex: the
// content address of this machine description.
func (m *Model) Hash() (string, error) {
	raw, err := m.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// Paragon returns a model of one Intel Paragon XP/S node: an i860 XP at
// 50 MHz (75 Mflop/s peak) on a 2-D mesh network.  The sustained flop rate
// reflects the poor compiled-code efficiency the paper reports for the AGCM
// on this machine.
func Paragon() *Model {
	return &Model{
		Name:         "Intel Paragon",
		Aggregate:    AggregateMaxRank,
		FlopRate:     3.2e6, // sustained, calibrated to Table 4's 1x1 run
		MemBandwidth: 24e6,  // effective miss bandwidth
		SendOverhead: 60e-6, // NX message-passing software overhead
		RecvOverhead: 60e-6,
		Latency:      100e-6,
		Bandwidth:    70e6,
		Eff:          Unit,
	}
}

// CrayT3D returns a model of one Cray T3D node: a 150 MHz Alpha 21064
// (150 Mflop/s peak) with no board cache, on a 3-D torus.  The paper finds
// the AGCM about 2.5x faster per node on the T3D than on the Paragon.
func CrayT3D() *Model {
	return &Model{
		Name:         "Cray T3D",
		Aggregate:    AggregateMaxRank,
		FlopRate:     8.0e6, // sustained, calibrated to Table 6's 1x1 run
		MemBandwidth: 85e6,  // DRAM read bandwidth seen by one PE
		SendOverhead: 15e-6, // PVM/MPI layer over shmem
		RecvOverhead: 15e-6,
		Latency:      25e-6,
		Bandwidth:    120e6,
		Eff:          Unit,
	}
}

// IBMSP2 returns a model of one IBM SP-2 thin node: a 66 MHz POWER2 with a
// large cache and a high-latency multistage switch.  The paper ran on the
// SP-2 but reports only that results were qualitatively similar.
func IBMSP2() *Model {
	return &Model{
		Name:         "IBM SP-2",
		Aggregate:    AggregateMaxRank,
		FlopRate:     14.0e6,
		MemBandwidth: 150e6,
		SendOverhead: 30e-6,
		RecvOverhead: 30e-6,
		Latency:      40e-6,
		Bandwidth:    35e6,
		Eff:          Unit,
	}
}

// Host returns the model of one core of the machine this process is running
// on — a modern x86-64 server core, three decades past the paper's trio.
// Simulated, it is a cluster of such cores, one rank each; priced by the
// roofline, it is this process running every rank on one clock
// (AggregateSum) — the built-in calibration `agcmd` prices jobs with when it
// is given no `-calib` file.
//
// The rates are nominal ceilings.  The efficiencies are the reference
// container's `agcmbench -calibrate` fit, made against a measured
// 3.056e9 flop/s ceiling and rescaled by 3.056e9/2.0e9 onto this FlopRate;
// every compute class is flop-bound here, so each one's price is the fit's
// to four digits.  Network is the fit's 0.1101 times 1.6, which keeps its
// price per message (1.6 µs of latency and overheads here, 1.0 µs in the
// fit).  Values above 1 say the nominal ceilings sit below what the kernels
// reach, not that a kernel beats its ceiling.  Physics and FilterFFT were moved by hand after the fit, in
// proportion to measured profile cuts (the block column kernel, 3.10x; the
// compiled mixed-radix FFT, 2.39x), because a whole refit on a shared host
// does not converge.
func Host() *Model {
	return &Model{
		Name:         "Host CPU",
		Aggregate:    AggregateSum,
		FlopRate:     2.0e9, // sustained scalar loops, one core
		MemBandwidth: 1.2e10,
		SendOverhead: 0.3e-6,
		RecvOverhead: 0.3e-6,
		Latency:      1e-6,
		Bandwidth:    1e10,
		Eff: Efficiencies{
			Dynamics:   3.300,
			Physics:    20.24,
			FilterConv: 2.771,
			FilterFFT:  1.184,
			Network:    0.1762,
		},
	}
}

// Degraded returns a copy of the model with its processor slowed by the
// given factor (> 1), network untouched — a failing fan, a shared node, a
// slower board: the hardware-heterogeneity scenario an estimate-driven
// load balancer should absorb.
func Degraded(m *Model, factor float64) *Model {
	if factor <= 0 {
		panic(fmt.Sprintf("machine: invalid degradation factor %g", factor))
	}
	d := *m
	d.Name = fmt.Sprintf("%s (degraded %.1fx)", m.Name, factor)
	d.FlopRate = m.FlopRate / factor
	d.MemBandwidth = m.MemBandwidth / factor
	return &d
}

// All returns the three modelled machines in paper order.  Host is
// deliberately excluded: the paper experiments iterate All() and compare
// against the 1996 tables.  Host-model configs are reached through ByName.
func All() []*Model {
	return []*Model{Paragon(), CrayT3D(), IBMSP2()}
}

// ByName returns the model matching a machine name, case-insensitively and
// ignoring spaces and dashes.  Both the short names used on command lines
// ("paragon", "t3d", "sp2", "host") and every Model.Name round-trip:
// ByName(m.Name) returns a model equal to m for each m in All() and Host().
// The model is fresh: the caller may change it.
func ByName(name string) (*Model, error) {
	m, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return &m, nil
}

// Lookup is ByName by value: it matches the name without allocating, so a
// caller that only compares against the named model (core's canonical
// encoding) builds none on the heap.
func Lookup(name string) (Model, error) {
	for _, n := range named {
		for _, alias := range n.aliases {
			if sameName(name, alias) {
				return n.model, nil
			}
		}
	}
	return Model{}, fmt.Errorf(
		"machine: unknown machine %q (want paragon/\"Intel Paragon\", t3d/\"Cray T3D\", sp2/\"IBM SP-2\" or host/\"Host CPU\", any case)",
		name)
}

// named lists each model under its names as sameName compares them: lower
// case, without spaces, dashes or underscores.  Lookup hands out copies.
var named = [...]struct {
	aliases [2]string
	model   Model
}{
	{[2]string{"paragon", "intelparagon"}, *Paragon()},
	{[2]string{"t3d", "crayt3d"}, *CrayT3D()},
	{[2]string{"sp2", "ibmsp2"}, *IBMSP2()},
	{[2]string{"host", "hostcpu"}, *Host()},
}

// sameName reports whether name, lower-cased with its spaces, dashes and
// underscores dropped, is alias — so "IBM SP-2" and "ibmsp2" compare equal.
func sameName(name, alias string) bool {
	j := 0
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == ' ' || c == '-' || c == '_':
			continue
		case c >= 'A' && c <= 'Z':
			c += 'a' - 'A'
		}
		if j == len(alias) || alias[j] != c {
			return false
		}
		j++
	}
	return j == len(alias)
}
