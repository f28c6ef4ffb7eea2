package bench

// Bench10: the roofline observe → predict → calibrate loop behind
// `agcmbench -calibrate` and the BENCH_10.json artifact.
//
// Observe: micro-benchmarks measure the host's flops and memory-bandwidth
// ceilings, and phase benchmarks time real core.Run executions across a
// spread of grids, layer counts, filter variants and meshes chosen to
// decorrelate the kernel classes (physics is quadratic in the layer count,
// the convolution filter quadratic in the zonal dimension, the network terms
// appear only on multi-rank meshes).
//
// Calibrate: the efficiencies are fitted by the deterministic least squares
// in internal/roofline, yielding a host Calib that is canonical JSON —
// hashable and committable.
//
// Predict: the fitted calibration re-prices every observation (and, for the
// three paper machines, a mesh grid of simulated runs) and the report
// carries the resulting MAPE and Spearman rank correlation; CI gates on
// them, so model drift — an operation-count change the calibration cannot
// absorb — fails the build.
//
// Host wall-clock sections are machine-dependent and only comparable on the
// same build host; the paper-machine sections are virtual-time and
// deterministic per tree.

import (
	"fmt"
	"testing"
	"time"

	"agcm/internal/core"
	"agcm/internal/experiments"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/roofline"
)

// Bench10Micro is the host's measured roofline ceilings.
type Bench10Micro struct {
	// FlopsPerSec is the sustained scalar multiply-add rate of one core.
	FlopsPerSec float64 `json:"flops_per_sec"`
	// BytesPerSec is the large-copy memory bandwidth of one core.
	BytesPerSec float64 `json:"bytes_per_sec"`
}

// Bench10Sample is one predicted-vs-measured observation.
type Bench10Sample struct {
	Label      string  `json:"label"`
	PredictedS float64 `json:"predicted_s"`
	MeasuredS  float64 `json:"measured_s"`
	// APE is |predicted-measured|/measured.
	APE float64 `json:"ape"`
}

// Bench10Host is the host side of the loop: measured ceilings, the fitted
// calibration and its in-loop prediction error.
type Bench10Host struct {
	Calib     roofline.Calib  `json:"calib"`
	CalibHash string          `json:"calib_hash"`
	Micro     Bench10Micro    `json:"micro"`
	Samples   []Bench10Sample `json:"samples"`
	MAPE      float64         `json:"mape"`
	Spearman  float64         `json:"spearman"`
}

// Bench10Machine is one paper machine's calibration fit against its
// simulated (virtual-time, deterministic) mesh grid.
type Bench10Machine struct {
	Name string `json:"name"`
	// Calib is the machine-model-derived calibration with fitted compute
	// efficiencies (network efficiency stays at the derived unit value).
	Calib roofline.Calib `json:"calib"`
	// Samples compare predicted against simulated seconds per simulated
	// day across the processor-mesh grid.
	Samples []Bench10Sample `json:"samples"`
	MAPE    float64         `json:"mape"`
}

// Bench10Report is the BENCH_10.json document.
type Bench10Report struct {
	Note string      `json:"note"`
	Host Bench10Host `json:"host"`
	// Machines holds the three paper machines in paper order.
	Machines []Bench10Machine `json:"machines"`
	// GridMAPE and GridSpearman pool every machine-grid point: can the
	// model rank the whole machine x mesh plane the way the simulation
	// does?
	GridMAPE     float64 `json:"grid_mape"`
	GridSpearman float64 `json:"grid_spearman"`
}

// hostPhase is one host phase-benchmark configuration.
type hostPhase struct {
	label string
	cfg   core.Config
	steps int
}

// hostPhases spans layer counts (3/5/9/15 — the quadratic longwave term
// separates physics from dynamics), both filter families, and single- and
// multi-rank meshes (the network column).  All on the host machine model;
// wall time does not depend on the model, but host-model configs are what
// the roofline oracle will be asked to price.
func hostPhases() []hostPhase {
	host := machine.Host()
	mk := func(label string, spec grid.Spec, py, px int, v core.FilterVariant) hostPhase {
		return hostPhase{
			label: label,
			cfg: core.Config{
				Spec: spec, Machine: host, MeshPy: py, MeshPx: px, Filter: v,
			},
			steps: 2,
		}
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

// measureWallSeconds runs the configuration reps times and returns the
// fastest wall time — the standard noise floor for host timing.
func measureWallSeconds(cfg core.Config, steps, reps int) (float64, error) {
	best := 0.0
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := core.Run(cfg, steps); err != nil {
			return 0, err
		}
		sec := time.Since(start).Seconds()
		if i == 0 || sec < best {
			best = sec
		}
	}
	return best, nil
}

// CalibrateHost runs the host side of the loop: micro ceilings, phase
// benchmarks, deterministic fit, in-loop prediction error.
func CalibrateHost() (*Bench10Host, error) {
	micro := Bench10Micro{
		FlopsPerSec: measureFlopsCeiling(),
		BytesPerSec: measureBytesCeiling(),
	}
	base := roofline.DefaultHost()
	calib := base
	calib.FlopsPerSec = micro.FlopsPerSec
	calib.BytesPerSec = micro.BytesPerSec
	calib.NetBytesPerSec = micro.BytesPerSec / 2 // messages are memcpy through channels

	phases := hostPhases()
	samples := make([]roofline.Sample, 0, len(phases))
	for _, ph := range phases {
		raw, err := roofline.RawSeconds(calib, ph.cfg, ph.steps)
		if err != nil {
			return nil, fmt.Errorf("bench10: counting %s: %w", ph.label, err)
		}
		wall, err := measureWallSeconds(ph.cfg, ph.steps, 3)
		if err != nil {
			return nil, fmt.Errorf("bench10: measuring %s: %w", ph.label, err)
		}
		samples = append(samples, roofline.Sample{
			Machine: "host", Label: ph.label, Raw: raw, Measured: wall,
		})
	}

	// Unit Base: a class the data cannot determine is charged the raw
	// roofline bound, not a stale efficiency from a previous fit — the
	// baked-in DefaultHost numbers must never steer their own refit.
	fit, err := roofline.Fit(samples, roofline.FitOptions{})
	if err != nil {
		return nil, fmt.Errorf("bench10: fitting host calib: %w", err)
	}
	calib.Eff = fit.Eff
	hash, err := calib.Hash()
	if err != nil {
		return nil, err
	}

	host := &Bench10Host{Calib: calib, CalibHash: hash, Micro: micro}
	pred := make([]float64, len(samples))
	meas := make([]float64, len(samples))
	for i, s := range samples {
		pred[i] = roofline.PredictSample(calib.Eff, s.Raw)
		meas[i] = s.Measured
		host.Samples = append(host.Samples, Bench10Sample{
			Label:      s.Label,
			PredictedS: pred[i],
			MeasuredS:  s.Measured,
			APE:        ape(pred[i], s.Measured),
		})
	}
	if host.MAPE, err = roofline.MAPE(pred, meas); err != nil {
		return nil, err
	}
	if host.Spearman, err = roofline.Spearman(pred, meas); err != nil {
		return nil, err
	}
	return host, nil
}

// calibrateMachine renders one paper machine's grid fit
// (experiments.FitMachineGrid at two measured steps) as its report section.
func calibrateMachine(m *machine.Model) (*Bench10Machine, error) {
	fit, err := experiments.FitMachineGrid(m, experiments.Options{MeasuredSteps: 2})
	if err != nil {
		return nil, fmt.Errorf("bench10: %w", err)
	}
	sec := &Bench10Machine{Name: m.Name, Calib: fit.Calib, MAPE: fit.MAPE}
	for i, label := range fit.Labels {
		sec.Samples = append(sec.Samples, Bench10Sample{
			Label:      label,
			PredictedS: fit.Predicted[i],
			MeasuredS:  fit.Measured[i],
			APE:        ape(fit.Predicted[i], fit.Measured[i]),
		})
	}
	return sec, nil
}

// NewBench10Report runs the full loop: host calibration plus the three paper
// machines' grid fits.
func NewBench10Report() (*Bench10Report, error) {
	host, err := CalibrateHost()
	if err != nil {
		return nil, err
	}
	rep := &Bench10Report{
		Note: "roofline observe-predict-calibrate loop: host sections are wall-clock " +
			"(comparable only on the same build host, gated by thresholds, not diffed); " +
			"machine sections are virtual-time and deterministic per tree",
		Host: *host,
	}
	var allPred, allMeas []float64
	for _, m := range machine.All() {
		sec, err := calibrateMachine(m)
		if err != nil {
			return nil, err
		}
		rep.Machines = append(rep.Machines, *sec)
		for _, s := range sec.Samples {
			allPred = append(allPred, s.PredictedS)
			allMeas = append(allMeas, s.MeasuredS)
		}
	}
	if rep.GridMAPE, err = roofline.MAPE(allPred, allMeas); err != nil {
		return nil, err
	}
	if rep.GridSpearman, err = roofline.Spearman(allPred, allMeas); err != nil {
		return nil, err
	}
	return rep, nil
}

func ape(pred, meas float64) float64 {
	if meas == 0 {
		return 0
	}
	d := (pred - meas) / meas
	if d < 0 {
		d = -d
	}
	return d
}
