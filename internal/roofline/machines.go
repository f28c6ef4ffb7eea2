package roofline

import (
	"fmt"

	"agcm/internal/machine"
)

// FromModel derives a roofline calibration from a linear machine model: the
// model's sustained rates become the ceilings, its message terms become the
// network constants, and the efficiencies start at unit — to be fitted
// against the simulation (Fit) or kept at unit when the linear model itself
// is the ground truth being approximated.
//
// The paper machines execute one rank per node, so the derived calibration
// aggregates on the critical path.
func FromModel(m *machine.Model) Calib {
	return Calib{
		Name:           m.Name,
		Aggregate:      AggregateMaxRank,
		FlopsPerSec:    m.FlopRate,
		BytesPerSec:    m.MemBandwidth,
		NetBytesPerSec: m.Bandwidth,
		NetLatencySec:  m.Latency,
		MsgOverheadSec: m.SendOverhead + m.RecvOverhead,
		Eff:            Efficiencies{Dynamics: 1, Physics: 1, FilterConv: 1, FilterFFT: 1, Network: 1},
	}
}

// DefaultHost returns the host CPU's calibration as fitted by
// `agcmbench -calibrate` on the reference container; the literals below are
// the record of that fit.  Ceilings are measured by the micro-benchmarks
// (one core, scalar Go loops); efficiencies are least-squares fits over the
// phase benchmarks.  Run `agcmbench -calibrate` to refit on the current
// host; this baked-in value is the built-in calibration a server prices
// with when none is supplied (`agcmd` without `-calib`).
//
// The host executes every simulated rank on one machine, so it aggregates
// total work, not the critical path.
func DefaultHost() Calib {
	return Calib{
		Name:           "host",
		Aggregate:      AggregateSum,
		FlopsPerSec:    3055576277.5083923,
		BytesPerSec:    18946634014.62566,
		NetBytesPerSec: 9473317007.31283,
		NetLatencySec:  0,
		MsgOverheadSec: 1.0e-6,
		Eff: Efficiencies{
			Dynamics: 2.160031516168156,
			// The fit's 4.274 times 3.10: the block column kernel cut
			// physics.(*Runner).Step's cumulative CPU in three paired 20-op
			// profiles of a 144x90x9 one-rank run from 4.37 s to 1.41 s
			// (34.0 % of the samples to 14.3 %).  Moved alone, as FilterFFT
			// was and for the same reason.
			Physics:    13.25,
			FilterConv: 1.813989414417996,
			// The fit's 0.324 times 2.39: the compiled mixed-radix FFT cut
			// the filter's share of a 144x90x9 one-rank run's CPU profile
			// from 3.40 s to 1.42 s.  A whole refit on today's shared host
			// does not converge, so only this class was moved.
			FilterFFT: 0.775,
			Network:   0.11010412802215186,
		},
	}
}

// ByName returns the named machine's calibration: the three paper machines
// (derived from their linear models) or "host" (the reference-fitted
// DefaultHost).  Accepts the same spellings machine.ByName does.
func ByName(name string) (Calib, error) {
	m, err := machine.ByName(name)
	if err != nil {
		return Calib{}, fmt.Errorf("roofline: %w", err)
	}
	if m.Name == machine.Host().Name {
		return DefaultHost(), nil
	}
	return FromModel(m), nil
}
