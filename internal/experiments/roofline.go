package experiments

import (
	"fmt"

	"agcm/internal/machine"
	"agcm/internal/roofline"
	"agcm/internal/stats"
)

// fitMachineGrid simulates roofline.MachineCalibPoints for the machine at
// opt's step count — one sample per point, in the paper's unit, seconds per
// simulated day — and fits the per-kernel-class compute efficiencies against
// the simulated timings by the deterministic least squares (network
// constants are the machine model's, not fitted).
func fitMachineGrid(m *machine.Model, opt Options) (machine.Efficiencies, []roofline.Sample, error) {
	// Simulated time is the critical path at the model's own rates: the
	// simulator gives every rank a node of its own and charges unit
	// efficiency, whatever the model says about pricing the host.
	simulated := *m
	simulated.Aggregate, simulated.Eff = machine.AggregateMaxRank, machine.Unit
	var samples []roofline.Sample
	for _, cp := range roofline.MachineCalibPoints(m) {
		rep, err := run(cp.Cfg, opt)
		if err != nil {
			return simulated.Eff, nil, fmt.Errorf("simulating %s %s: %w", m.Name, cp.Label, err)
		}
		raw, err := roofline.RawSeconds(&simulated, cp.Cfg, opt.steps())
		if err != nil {
			return simulated.Eff, nil, fmt.Errorf("counting %s %s: %w", m.Name, cp.Label, err)
		}
		// Scale raw charged-step seconds to seconds per simulated day.
		norm, err := cp.Cfg.Normalized()
		if err != nil {
			return simulated.Eff, nil, err
		}
		perDay := float64(cp.Cfg.StepsPerDay()) / float64(opt.steps()+max(norm.WarmupSteps, 0))
		for j := range raw {
			raw[j] *= perDay
		}
		samples = append(samples, roofline.Sample{
			Machine: m.Name, Label: cp.Label, Raw: raw, Measured: rep.Total,
		})
	}
	fitted, err := roofline.Fit(samples, roofline.ComputeClasses)
	if err != nil {
		return simulated.Eff, nil, fmt.Errorf("fitting %s: %w", m.Name, err)
	}
	return fitted, samples, nil
}

// Roofline closes the observe-predict-calibrate loop in virtual time: for
// each modelled machine — the paper trio plus a cluster of host-CPU nodes —
// it simulates the calibration grid (roofline.MachineCalibPoints: the
// standard 2x2.5x9 run across processor meshes, plus the convolution-filter
// and layer-count points that decorrelate the kernel classes), prices it on
// the machine model at unit efficiency, fits the per-kernel-class
// efficiencies against the simulated timings by the deterministic least
// squares, and tabulates predicted against measured seconds per simulated
// day.  The wall-clock half of the loop (real host benchmarks feeding the
// same fit) lives in `agcmbench -calibrate`; this experiment is its
// bit-deterministic twin, runnable anywhere and diffed in CI as a section
// of the committed RESULTS.txt.
func Roofline(opt Options) (*Output, error) {
	machines := append(machine.All(), machine.Host())
	tbl := &stats.Table{
		Title:  "Roofline model: predicted vs simulated whole-code times, 2x2.5 grid",
		Header: []string{"Machine", "Config", "Simulated s/day", "Predicted s/day", "Error"},
	}
	notes := []string{
		"Efficiencies fitted per machine on this grid (deterministic least squares);",
		"network constants derive from the machine model and are not fitted.",
	}
	var allPred, allMeas []float64
	for _, mach := range machines {
		eff, samples, err := fitMachineGrid(mach, opt)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		first := len(allPred)
		for _, s := range samples {
			p := roofline.PredictSample(eff, s.Raw)
			errPct := 0.0
			if s.Measured != 0 {
				errPct = (p - s.Measured) / s.Measured
			}
			tbl.AddRow(mach.Name, s.Label,
				stats.Seconds(s.Measured), stats.Seconds(p), stats.Percent(errPct))
			allPred = append(allPred, p)
			allMeas = append(allMeas, s.Measured)
		}
		mape, err := roofline.MAPE(allPred[first:], allMeas[first:])
		if err != nil {
			return nil, err
		}
		notes = append(notes, fmt.Sprintf("%s: MAPE %.1f%% (eff dyn %.2f phys %.2f conv %.2f fft %.2f).",
			mach.Name, 100*mape, eff.Dynamics, eff.Physics, eff.FilterConv, eff.FilterFFT))
	}
	sp, err := roofline.Spearman(allPred, allMeas)
	if err != nil {
		return nil, err
	}
	mape, err := roofline.MAPE(allPred, allMeas)
	if err != nil {
		return nil, err
	}
	notes = append(notes, fmt.Sprintf(
		"Pooled over the %d-point machine x config grid: MAPE %.1f%%, Spearman rank correlation %.3f.",
		len(allPred), 100*mape, sp))
	return &Output{ID: "roofline", Title: "Roofline machine models",
		Tables: []*stats.Table{tbl}, Notes: notes}, nil
}
