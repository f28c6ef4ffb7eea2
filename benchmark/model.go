package main

// The three model workloads: one op is one core.Run call.

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"agcm/internal/core"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/physics"
	"agcm/internal/roofline"
)

// windOffsets is how many distinct InitWind values the seed selects from:
// InitWind = 20 + 0.25*(seed mod windOffsets).  Goldens are committed for
// every one of them, so every seed is checked against a golden.
const windOffsets = 8

// modelConfig returns the configuration and measured step count of a model
// workload.  The seed reaches the program only through InitWind.
func modelConfig(name string, seed int64) (core.Config, int) {
	cfg := core.Config{
		Spec:          grid.TwoByTwoPointFive(9),
		Machine:       machine.Paragon(),
		MeshPy:        8,
		MeshPx:        30,
		Filter:        core.FilterFFTBalanced,
		PhysicsScheme: physics.Pairwise,
		PhysicsRounds: 2,
		InitWind:      20 + 0.25*float64(seed%windOffsets),
	}
	switch name {
	case SingleRank:
		cfg.MeshPy, cfg.MeshPx = 1, 1
		return cfg, 10
	case Mesh240Conv:
		cfg.Filter = core.FilterConvolutionRing
		cfg.PhysicsScheme = physics.None
	}
	return cfg, 2
}

// signature is what must be bit-identical across all ops of a run and equal
// to the committed golden.
type signature struct {
	Total           float64 `json:"total_s_day"`
	FilterTime      float64 `json:"filter_s_day"`
	PhysicsTime     float64 `json:"physics_s_day"`
	MessagesPerStep float64 `json:"messages_per_step"`
	BytesPerStep    float64 `json:"bytes_per_step"`
	MaxAbsH         float64 `json:"max_abs_h"`
}

func signatureOf(rep *core.Report) signature {
	return signature{rep.Total, rep.FilterTime, rep.PhysicsTime, rep.MessagesPerStep, rep.BytesPerStep, rep.MaxAbsH}
}

// goldens is testdata/golden.json: per model workload one signature per wind
// offset, and the SHA-256 of the served body of pool index 0 of the serving
// template (the hottest serve-hot key, asked for under every seed).
type goldens struct {
	Model          map[string][]signature `json:"model"`
	ServePool0Body string                 `json:"serve_pool0_body_sha256"`
}

//go:embed testdata/golden.json
var goldenJSON []byte

func loadGoldens() (goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return g, nil
}

// golden returns the committed signature of a model workload under a seed.
func (g goldens) golden(name string, seed int64) (signature, bool) {
	sigs := g.Model[name]
	if len(sigs) != windOffsets {
		return signature{}, false
	}
	return sigs[seed%windOffsets], true
}

func runModel(name string, o options) (*pass, error) {
	g, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	cfg, steps := modelConfig(name, o.seed)
	want, haveGolden := g.golden(name, o.seed)
	p := newPass()

	op := func(tr *tracer, request int64) error {
		var rep *core.Report
		var err error
		if tr != nil {
			rep, err = tr.run(context.Background(), cfg, steps, 0, request)
		} else {
			rep, err = core.Run(cfg, steps)
		}
		if err != nil {
			return err
		}
		if !haveGolden {
			want, haveGolden = signatureOf(rep), true
		}
		if got := signatureOf(rep); got != want {
			return fmt.Errorf("report %+v differs from golden %+v", got, want)
		}
		p.last = rep
		return nil
	}

	// Set-up is the warm-up ops (plan caches, pools) and their golden check.
	warm := 5
	if o.quick {
		warm = 1
	}
	for s := 0; s < o.setups; s++ {
		var norm, raw float64
		for i := 0; i < warm; i++ {
			var err error
			wall, speed := o.clock.lap(func() { err = op(nil, 0) })
			if err != nil {
				return nil, fmt.Errorf("%s warm-up: %w", name, err)
			}
			norm, raw = norm+wall*speed, raw+wall
		}
		p.setupS, p.rawSetupS = append(p.setupS, norm), append(p.rawSetupS, raw)
	}

	before := readAllocs()
	start := time.Now()
	for i := 0; ; i++ {
		if o.quick && i >= 2 || !o.quick && time.Since(start).Seconds() >= o.seconds {
			break
		}
		// A traced run alternates plain and traced ops, so both medians see
		// the same host conditions.
		traced := o.tr != nil && i%2 == 1
		var err error
		wall, speed := o.clock.lap(func() {
			if traced {
				err = op(o.tr, int64(i))
			} else {
				err = op(nil, 0)
			}
		})
		p.timed([]float64{wall}, traced, wall, speed)
		p.attempted++
		if err != nil {
			p.fail("op %d: %v", i, err)
		}
	}
	p.alloc = readAllocs().since(before)

	// The paper's headline, checked against the other filter's golden: the
	// convolution filter costs more virtual time than the FFT filter.
	if fft, ok := g.golden(Mesh240FFT, o.seed); ok && name == Mesh240Conv && !(want.FilterTime > fft.FilterTime) {
		p.fail("convolution filter time %g does not exceed the FFT filter's %g", want.FilterTime, fft.FilterTime)
	}
	if conv, ok := g.golden(Mesh240Conv, o.seed); ok && name == Mesh240FFT && !(want.FilterTime < conv.FilterTime) {
		p.fail("FFT filter time %g is not below the convolution filter's %g", want.FilterTime, conv.FilterTime)
	}
	p.notes = append(p.notes, fmt.Sprintf("%d measured steps per op: %.2f model steps per host second",
		steps, float64(steps*(len(p.ops)+len(p.tracedOps)))/p.wallS), p.rawNote())

	if o.tr != nil {
		if err := coreLayer(p, o.tr, cfg, steps); err != nil {
			return nil, err
		}
		switch name {
		case Mesh240Conv: // runs physics unbalanced
			p.layer["physics.imbalance_before_pct"] = 100 * core.Imbalance(p.last.PhysicsLoads)
		case Mesh240FFT:
			p.layer["physics.imbalance_after_pct"] = 100 * core.Imbalance(p.last.PhysicsLoads)
		}
	}
	return p, nil
}

// coreLayer fills the core.* family, the roofline residual and the tracing
// overhead from a pass's core.run spans.  cfg and steps describe the runs'
// shape (every run of a pass has the same one).
func coreLayer(p *pass, tr *tracer, cfg core.Config, steps int) error {
	var walls, perMsg []float64
	var last runInfo
	for _, s := range tr.spans {
		if s.Name != "core.run" {
			continue
		}
		info, ok := tr.runs[s.ID]
		if !ok {
			continue
		}
		walls = append(walls, info.wallS)
		if info.messages > 0 {
			perMsg = append(perMsg, info.wallS*1e6/float64(info.messages))
		}
		last = info
	}
	if len(walls) == 0 {
		return fmt.Errorf("traced pass recorded no core.run span")
	}
	wall := median(walls)
	p.layer["core.run_ms_p50"] = wall * 1e3
	p.layer["core.run_s_p75"] = quantile(walls, 0.75)
	p.layer["core.host_us_per_msg"] = median(perMsg) // 0 on one rank: no messages
	p.layer["core.virtual_s_per_day"] = last.virtualSPerDay
	p.layer["core.filter_share_dyn"] = last.filterShareDyn
	p.layer["core.msgs_per_step"] = last.msgsPerStep
	p.layer["core.bytes_per_step"] = last.bytesPerStep
	p.layer["core.max_wait_share"] = last.maxWaitShare

	// Flops are computed from the grid dimensions (roofline.CountKernels),
	// not measured.
	counts, err := roofline.CountKernels(cfg, steps)
	if err != nil {
		return err
	}
	flops := 0.0
	for _, k := range counts.Kernels {
		flops += k.TotalFlops * float64(counts.Steps)
	}
	p.layer["core.achieved_mflops"] = flops / wall / 1e6

	host, err := roofline.NewMachine(roofline.DefaultHost())
	if err != nil {
		return err
	}
	predicted, err := host.PredictSeconds(cfg, steps)
	if err != nil {
		return err
	}
	residual := predicted - wall
	if residual < 0 {
		residual = -residual
	}
	p.layer["roofline.residual_pct"] = 100 * residual / wall

	if len(p.ops) > 0 && len(p.tracedOps) > 0 {
		p.layer["trace.overhead_ratio"] = median(p.tracedOps) / median(p.ops)
	}
	return nil
}
