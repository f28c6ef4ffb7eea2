package main

// The wall-clock half of the roofline observe → predict → calibrate loop
// behind `agcmbench -calibrate` (its bit-deterministic twin is the `roofline`
// experiment).  It lives under cmd/ because it reads the wall clock, which
// agcmlint forbids in internal/roofline.
//
// Observe: micro-benchmarks measure the host's flops and memory-bandwidth
// ceilings, and phase benchmarks time real core.Run executions across a
// spread of grids, layer counts, filter variants and meshes chosen to
// decorrelate the kernel classes (physics is quadratic in the layer count,
// the convolution filter quadratic in the zonal dimension, the network terms
// appear only on multi-rank meshes).
//
// Calibrate: the efficiencies are fitted by the deterministic least squares
// in internal/roofline, yielding a host machine.Model whose canonical JSON
// is the file `agcmd -calib` reads.
//
// Predict: the fitted calibration re-prices every observation, and the
// rendered table carries the resulting MAPE and Spearman rank correlation.
// They are host noise as much as model error (the MAPE read 0.07 to 6.8
// across runs of one commit on a shared 2-vCPU host), so they are printed,
// not gated.

import (
	"fmt"
	"testing"
	"time"

	"agcm/internal/core"
	"agcm/internal/experiments"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/roofline"
	"agcm/internal/stats"
)

// hostPhase is one host phase-benchmark configuration, timed over
// hostPhaseSteps measured steps, fastest of hostPhaseReps runs.
type hostPhase struct {
	label string
	cfg   core.Config
}

const hostPhaseSteps, hostPhaseReps = 2, 3

// hostPhases spans layer counts (3/5/9/15 — the quadratic longwave term
// separates physics from dynamics), both filter families, and single- and
// multi-rank meshes (the network column).  All on the host machine model;
// wall time does not depend on the model, but host-model configs are what
// the roofline oracle will be asked to price.
func hostPhases() []hostPhase {
	host := machine.Host()
	mk := func(label string, spec grid.Spec, py, px int, v core.FilterVariant) hostPhase {
		return hostPhase{label, core.Config{
			Spec: spec, Machine: host, MeshPy: py, MeshPx: px, Filter: v,
		}}
	}
	return []hostPhase{
		mk("36x24x3/1x1/fft", grid.Spec{Nlon: 36, Nlat: 24, Nlayers: 3}, 1, 1, core.FilterFFT),
		mk("36x24x3/1x1/conv", grid.Spec{Nlon: 36, Nlat: 24, Nlayers: 3}, 1, 1, core.FilterConvolutionRing),
		mk("36x24x3/1x2/fft", grid.Spec{Nlon: 36, Nlat: 24, Nlayers: 3}, 1, 2, core.FilterFFT),
		mk("72x46x5/1x1/fft", grid.Spec{Nlon: 72, Nlat: 46, Nlayers: 5}, 1, 1, core.FilterFFT),
		mk("72x46x5/1x1/conv", grid.Spec{Nlon: 72, Nlat: 46, Nlayers: 5}, 1, 1, core.FilterConvolutionRing),
		mk("72x46x5/2x2/fft", grid.Spec{Nlon: 72, Nlat: 46, Nlayers: 5}, 2, 2, core.FilterFFT),
		mk("144x90x9/1x1/fft", grid.TwoByTwoPointFive(9), 1, 1, core.FilterFFT),
		mk("144x90x9/1x1/conv", grid.TwoByTwoPointFive(9), 1, 1, core.FilterConvolutionRing),
		mk("144x90x9/2x2/fft-lb", grid.TwoByTwoPointFive(9), 2, 2, core.FilterFFTBalanced),
		mk("144x90x9/4x4/fft-lb", grid.TwoByTwoPointFive(9), 4, 4, core.FilterFFTBalanced),
		mk("144x90x15/1x1/fft", grid.TwoByTwoPointFive(15), 1, 1, core.FilterFFT),
	}
}

var benchSink float64

// measureFlopsCeiling times a cache-resident fused multiply-add loop with
// four independent chains — about as fast as scalar Go code goes — and
// returns flop/s.
func measureFlopsCeiling() float64 {
	const n = 4096
	a := make([]float64, n)
	for i := range a {
		a[i] = 1 + 1e-9*float64(i)
	}
	r := testing.Benchmark(func(b *testing.B) {
		s0, s1, s2, s3 := 1.0, 1.0, 1.0, 1.0
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j += 4 {
				s0 = s0*0.9999999 + a[j]
				s1 = s1*0.9999999 + a[j+1]
				s2 = s2*0.9999999 + a[j+2]
				s3 = s3*0.9999999 + a[j+3]
			}
		}
		benchSink = s0 + s1 + s2 + s3
	})
	flopsPerOp := 2.0 * n // one multiply + one add per element
	return flopsPerOp / float64(r.NsPerOp()) * 1e9
}

// measureBytesCeiling times large copies (far beyond cache) and returns
// byte/s, counting each element once read and once written.
func measureBytesCeiling() float64 {
	const n = 1 << 22 // 32 MiB of float64
	src := make([]float64, n)
	dst := make([]float64, n)
	for i := range src {
		src[i] = float64(i)
	}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(dst, src)
		}
	})
	bytesPerOp := 2.0 * n * 8
	return bytesPerOp / float64(r.NsPerOp()) * 1e9
}

// measureWallSeconds runs the configuration hostPhaseReps times and returns
// the fastest wall time — the standard noise floor for host timing.
func measureWallSeconds(cfg core.Config) (float64, error) {
	best := 0.0
	for i := 0; i < hostPhaseReps; i++ {
		start := time.Now()
		if _, err := core.Run(cfg, hostPhaseSteps); err != nil {
			return 0, err
		}
		sec := time.Since(start).Seconds()
		if i == 0 || sec < best {
			best = sec
		}
	}
	return best, nil
}

// calibrateHost runs the loop — micro ceilings, phase benchmarks,
// deterministic fit, in-loop prediction error — and returns the fitted host
// model with its predicted-vs-measured rendering.
func calibrateHost() (*experiments.Output, *machine.Model, error) {
	calib := machine.Host()
	calib.FlopRate = measureFlopsCeiling()
	calib.MemBandwidth = measureBytesCeiling()
	calib.Bandwidth = calib.MemBandwidth / 2 // messages are memcpy through channels

	phases := hostPhases()
	samples := make([]roofline.Sample, 0, len(phases))
	for _, ph := range phases {
		raw, err := roofline.RawSeconds(calib, ph.cfg, hostPhaseSteps)
		if err != nil {
			return nil, calib, fmt.Errorf("calibrate: counting %s: %w", ph.label, err)
		}
		wall, err := measureWallSeconds(ph.cfg)
		if err != nil {
			return nil, calib, fmt.Errorf("calibrate: measuring %s: %w", ph.label, err)
		}
		samples = append(samples, roofline.Sample{
			Machine: "host", Label: ph.label, Raw: raw, Measured: wall,
		})
	}

	// A class the data cannot determine is charged the raw roofline bound
	// (unit efficiency), not a stale efficiency from a previous fit — the
	// baked-in machine.Host numbers must never steer their own refit.
	eff, err := roofline.Fit(samples, nil)
	if err != nil {
		return nil, calib, fmt.Errorf("calibrate: fitting host calib: %w", err)
	}
	calib.Eff = eff
	hash, err := calib.Hash()
	if err != nil {
		return nil, calib, err
	}

	tbl := &stats.Table{
		Title:  fmt.Sprintf("Host roofline calibration: predicted vs measured wall time (min of %d)", hostPhaseReps),
		Header: []string{"Config", "Measured ms", "Predicted ms", "Error"},
	}
	pred := make([]float64, len(samples))
	meas := make([]float64, len(samples))
	for i, s := range samples {
		pred[i] = roofline.PredictSample(calib.Eff, s.Raw)
		meas[i] = s.Measured
		tbl.AddRow(s.Label, stats.Seconds(1e3*meas[i]), stats.Seconds(1e3*pred[i]),
			stats.Percent((pred[i]-meas[i])/meas[i]))
	}
	mape, err := roofline.MAPE(pred, meas)
	if err != nil {
		return nil, calib, err
	}
	sp, err := roofline.Spearman(pred, meas)
	if err != nil {
		return nil, calib, err
	}
	notes := []string{
		"Wall-clock: comparable only on the same host, and not gated.",
		fmt.Sprintf("Ceilings (one core, scalar Go): %.3g flop/s, %.3g byte/s memory, %.3g byte/s network.",
			calib.FlopRate, calib.MemBandwidth, calib.Bandwidth),
		fmt.Sprintf("Fitted efficiencies: dyn %.2f phys %.2f conv %.2f fft %.2f net %.2f.",
			eff.Dynamics, eff.Physics, eff.FilterConv, eff.FilterFFT, eff.Network),
		fmt.Sprintf("MAPE %.1f%%, Spearman rank correlation %.3f over %d phases; calib sha256 %s.",
			100*mape, sp, len(samples), hash),
	}
	return &experiments.Output{ID: "calibrate", Title: "Host roofline calibration",
		Tables: []*stats.Table{tbl}, Notes: notes}, calib, nil
}
