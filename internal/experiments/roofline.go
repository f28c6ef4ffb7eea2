package experiments

import (
	"fmt"

	"agcm/internal/machine"
	"agcm/internal/roofline"
	"agcm/internal/stats"
)

// MachineGridFit is one machine model's roofline fit against its simulated
// calibration grid: point i is Labels[i], predicted and measured in the
// paper's unit, seconds per simulated day.
type MachineGridFit struct {
	// Calib is the model-derived calibration with the fitted compute
	// efficiencies (network constants are derived, not fitted).
	Calib     roofline.Calib
	Labels    []string
	Predicted []float64
	Measured  []float64
	MAPE      float64
}

// FitMachineGrid simulates roofline.MachineCalibPoints for the machine at
// opt's step count, fits the per-kernel-class compute efficiencies against
// the simulated timings by the deterministic least squares and re-prices
// every point with the fit.  The `roofline` experiment and BENCH_10's
// machine sections are both this loop.
func FitMachineGrid(m *machine.Model, opt Options) (*MachineGridFit, error) {
	fit := &MachineGridFit{Calib: roofline.FromModel(m)}
	var samples []roofline.Sample
	for _, cp := range roofline.MachineCalibPoints(m) {
		rep, err := run(cp.Cfg, opt)
		if err != nil {
			return nil, fmt.Errorf("simulating %s %s: %w", m.Name, cp.Label, err)
		}
		raw, err := roofline.RawSeconds(fit.Calib, cp.Cfg, opt.steps())
		if err != nil {
			return nil, fmt.Errorf("counting %s %s: %w", m.Name, cp.Label, err)
		}
		// Scale raw charged-step seconds to seconds per simulated day.
		norm, err := cp.Cfg.Normalized()
		if err != nil {
			return nil, err
		}
		perDay := float64(cp.Cfg.StepsPerDay()) / float64(opt.steps()+norm.WarmupSteps)
		for j := range raw {
			raw[j] *= perDay
		}
		samples = append(samples, roofline.Sample{
			Machine: m.Name, Label: cp.Label, Raw: raw, Measured: rep.Total,
		})
	}
	fitted, err := roofline.Fit(samples, roofline.FitOptions{
		Base:    fit.Calib.Eff,
		Classes: roofline.ComputeClasses,
	})
	if err != nil {
		return nil, fmt.Errorf("fitting %s: %w", m.Name, err)
	}
	fit.Calib.Eff = fitted.Eff
	for _, s := range samples {
		fit.Labels = append(fit.Labels, s.Label)
		fit.Predicted = append(fit.Predicted, roofline.PredictSample(fit.Calib.Eff, s.Raw))
		fit.Measured = append(fit.Measured, s.Measured)
	}
	if fit.MAPE, err = roofline.MAPE(fit.Predicted, fit.Measured); err != nil {
		return nil, err
	}
	return fit, nil
}

// Roofline closes the observe-predict-calibrate loop in virtual time: for
// each modelled machine — the paper trio plus a cluster of host-CPU nodes —
// it simulates the calibration grid (roofline.MachineCalibPoints: the
// standard 2x2.5x9 run across processor meshes, plus the convolution-filter
// and layer-count points that decorrelate the kernel classes), derives a
// roofline calibration from the machine model, fits the per-kernel-class
// efficiencies against the simulated timings by the deterministic least
// squares, and tabulates predicted against measured seconds per simulated
// day.  The wall-clock half of the loop (real host benchmarks feeding the
// same fit) lives in `agcmbench -calibrate`; this experiment is its
// bit-deterministic twin, runnable anywhere and diffable in CI.
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
		fit, err := FitMachineGrid(mach, opt)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		for i, label := range fit.Labels {
			p, meas := fit.Predicted[i], fit.Measured[i]
			errPct := 0.0
			if meas != 0 {
				errPct = (p - meas) / meas
			}
			tbl.AddRow(mach.Name, label,
				stats.Seconds(meas), stats.Seconds(p), stats.Percent(errPct))
		}
		allPred = append(allPred, fit.Predicted...)
		allMeas = append(allMeas, fit.Measured...)
		eff := fit.Calib.Eff
		notes = append(notes, fmt.Sprintf("%s: MAPE %.1f%% (eff dyn %.2f phys %.2f conv %.2f fft %.2f).",
			mach.Name, 100*fit.MAPE, eff.Dynamics, eff.Physics, eff.FilterConv, eff.FilterFFT))
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
