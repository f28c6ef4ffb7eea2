package roofline

import (
	"fmt"
	"math"
	"testing"

	"agcm/internal/core"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/physics"
)

// retiredCalib is the second machine description this package used to price
// with, kept as a test-only reference: a paper machine's copied five of its
// model's rates at unit efficiency, and the host's carried ceilings fitted
// apart from the host model the simulator charges.
type retiredCalib struct {
	aggregate                                    string
	flops, bytes, netBytes, netLatency, overhead float64
	eff                                          machine.Efficiencies
}

func retiredFromModel(m *machine.Model) retiredCalib {
	return retiredCalib{
		aggregate: machine.AggregateMaxRank,
		flops:     m.FlopRate, bytes: m.MemBandwidth, netBytes: m.Bandwidth,
		netLatency: m.Latency, overhead: m.SendOverhead + m.RecvOverhead,
		eff: machine.Unit,
	}
}

// retiredDefaultHost is the host calibration as last fitted.
var retiredDefaultHost = retiredCalib{
	aggregate: machine.AggregateSum,
	flops:     3055576277.5083923, bytes: 18946634014.62566, netBytes: 9473317007.31283,
	netLatency: 0, overhead: 1.0e-6,
	eff: machine.Efficiencies{
		Dynamics: 2.160031516168156, Physics: 13.25, FilterConv: 1.813989414417996,
		FilterFFT: 0.775, Network: 0.11010412802215186,
	},
}

// seconds is the retired predictor's arithmetic, operation for operation:
// per-class seconds over every charged step, and their total.
func (c retiredCalib) seconds(counts Counts) (map[Class]float64, float64) {
	degrade := 1.0
	if c.aggregate == machine.AggregateMaxRank {
		degrade = counts.Degrade
	}
	byClass := map[Class]float64{}
	var step float64
	for _, k := range counts.Kernels {
		flops, bytes := k.CPFlops, k.CPBytes
		msgs, netBytes := k.CPMsgs, k.CPNetBytes
		if c.aggregate == machine.AggregateSum {
			flops, bytes = k.TotalFlops, k.TotalBytes
			msgs, netBytes = k.TotalMsgs, k.TotalNetBytes
		}
		var t float64
		if k.Class == ClassNetwork {
			t = msgs*(c.netLatency+c.overhead) + netBytes/c.netBytes
		} else if ft, bt := flops/c.flops, bytes/c.bytes; ft >= bt {
			t = ft
		} else {
			t = bt
		}
		t = t / *k.Class.eff(&c.eff) * degrade
		byClass[k.Class] += t * float64(counts.Steps)
		step += t
	}
	return byClass, step * float64(counts.Steps)
}

// retiredSweep is every filter variant and physics setting on one- to
// 240-rank meshes of two grids, healthy and with a degraded rank.
func retiredSweep(m *machine.Model) []core.Config {
	var cfgs []core.Config
	for _, spec := range []grid.Spec{{Nlon: 72, Nlat: 46, Nlayers: 9}, grid.TwoByTwoPointFive(9)} {
		for _, mesh := range [][2]int{{1, 1}, {2, 4}, {4, 4}, {8, 30}} {
			for f := core.FilterConvolutionRing; f <= core.FilterFFTRowwise; f++ {
				for _, scheme := range []physics.Scheme{physics.None, physics.Pairwise} {
					cfg := core.Config{Spec: spec, Machine: m, MeshPy: mesh[0], MeshPx: mesh[1],
						Filter: f, PhysicsScheme: scheme, DegradeRank: -1}
					cfgs = append(cfgs, cfg)
					if mesh[0]*mesh[1] > 1 {
						cfg.DegradeRank, cfg.DegradeFactor = 1, 2.5
						cfgs = append(cfgs, cfg)
					}
				}
			}
		}
	}
	return cfgs
}

// TestPredictPaperMachinesMatchRetiredCalib: pricing a paper machine's model
// directly is bit for bit what pricing its derived copy was.
func TestPredictPaperMachinesMatchRetiredCalib(t *testing.T) {
	for _, m := range machine.All() {
		oracle, err := NewMachine(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range retiredSweep(m) {
			got, err := oracle.PredictSeconds(cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			counts, err := CountKernels(cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			if _, want := retiredFromModel(m).seconds(counts); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %dx%d %v: %v now, %v before", m.Name, cfg.MeshPy, cfg.MeshPx, cfg.Filter, got, want)
			}
		}
	}
}

// TestHostPricesMatchRetiredDefaultHost: the host model carries the last
// host fit re-expressed against its own rates.  Every compute class is
// priced as before to the four digits its efficiencies keep, and the
// network per message; only the network's per-byte term moved (it fell
// 41 %), which moves a whole-job price by at most 6 %.  sjf ranks jobs by
// these prices, so the order they put the sweep in may swap near-ties only.
func TestHostPricesMatchRetiredDefaultHost(t *testing.T) {
	host := machine.Host()
	oracle, err := NewMachine(host)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := retiredSweep(host)
	now := make([]float64, len(cfgs))
	before := make([]float64, len(cfgs))
	worst := 0.0
	for i, cfg := range cfgs {
		counts, err := CountKernels(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		price, err := oracle.PredictSeconds(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		oldByClass, old := retiredDefaultHost.seconds(counts)
		newByClass := map[Class]float64{}
		oracle.price(counts, func(c Class, s float64) { newByClass[c] += s * float64(counts.Steps) })
		for class, want := range oldByClass {
			if class == ClassNetwork {
				continue
			}
			if rel := math.Abs(newByClass[class]/want - 1); rel > 5e-4 {
				t.Errorf("%s: class %s priced %g, was %g (%.2g off)", label(cfg), class, newByClass[class], want, rel)
			}
		}
		now[i], before[i] = price, old
		worst = math.Max(worst, math.Abs(price/old-1))
	}
	if worst > 0.06 {
		t.Errorf("a host price moved %.1f%%", 100*worst)
	}
	rho, err := Spearman(now, before)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("worst price move %.2f%%, rank correlation %.5f", 100*worst, rho)
	if rho < 0.999 {
		t.Errorf("sjf order moved: rank correlation %.5f with the retired prices", rho)
	}
}

func label(cfg core.Config) string {
	return fmt.Sprintf("%dx%dx%d/%dx%d/%v/%v/deg%d", cfg.Spec.Nlon, cfg.Spec.Nlat, cfg.Spec.Nlayers,
		cfg.MeshPy, cfg.MeshPx, cfg.Filter, cfg.PhysicsScheme, cfg.DegradeRank)
}
