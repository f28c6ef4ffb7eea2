// Package agcm's top-level benchmark harness: one testing.B benchmark per
// table and figure of the paper, each regenerating its experiment on the
// simulated machines and reporting the headline numbers as custom metrics
// (virtual seconds per simulated day, imbalance percentages, speedups).
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Native kernel benchmarks (FFT, Laplace layouts, advection, BLAS-1) live
// next to their packages under internal/.
package agcm

import (
	"strconv"
	"strings"
	"testing"

	"agcm/internal/core"
	"agcm/internal/experiments"
	"agcm/internal/grid"
	"agcm/internal/loadbalance"
	"agcm/internal/machine"
	"agcm/internal/physics"
	"agcm/internal/singlenode"
)

var benchOpt = experiments.Options{MeasuredSteps: 1}

// cellFloat parses a numeric table cell (strips % and x suffixes).
func cellFloat(b *testing.B, s string) float64 {
	b.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("unparsable cell %q: %v", s, err)
	}
	return v
}

// benchExperiment runs one paper experiment per iteration and lets the
// caller pull metrics out of the final output.
func benchExperiment(b *testing.B, fn func(experiments.Options) (*experiments.Output, error),
	metrics func(*experiments.Output, *testing.B)) {
	b.Helper()
	var out *experiments.Output
	for i := 0; i < b.N; i++ {
		var err error
		out, err = fn(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
	}
	if metrics != nil {
		metrics(out, b)
	}
}

// BenchmarkFig1Breakdown regenerates Figure 1's component shares: the
// convolution-ring filter on the simulated Paragon at 4x4 and 8x30 — the
// paper's motivating breakdown and the repo's heaviest single experiment.
func BenchmarkFig1Breakdown(b *testing.B) {
	benchExperiment(b, experiments.Figure1, func(o *experiments.Output, b *testing.B) {
		rows := o.Tables[0].Rows
		b.ReportMetric(cellFloat(b, rows[0][4]), "filter-pct-dyn-16n")
		b.ReportMetric(cellFloat(b, rows[1][4]), "filter-pct-dyn-240n")
	})
}

// BenchmarkTable1PhysicsLB64 regenerates the 8x8 physics balancing table.
func BenchmarkTable1PhysicsLB64(b *testing.B) {
	benchExperiment(b, experiments.Table1, func(o *experiments.Output, b *testing.B) {
		rows := o.Tables[0].Rows
		b.ReportMetric(cellFloat(b, rows[0][3]), "imbalance-before-pct")
		b.ReportMetric(cellFloat(b, rows[len(rows)-1][3]), "imbalance-after-pct")
	})
}

// BenchmarkTable2PhysicsLB126 regenerates the 9x14 physics balancing table.
func BenchmarkTable2PhysicsLB126(b *testing.B) {
	benchExperiment(b, experiments.Table2, func(o *experiments.Output, b *testing.B) {
		rows := o.Tables[0].Rows
		b.ReportMetric(cellFloat(b, rows[0][3]), "imbalance-before-pct")
		b.ReportMetric(cellFloat(b, rows[len(rows)-1][3]), "imbalance-after-pct")
	})
}

// BenchmarkTable3PhysicsLB252 regenerates the 14x18 physics balancing table.
func BenchmarkTable3PhysicsLB252(b *testing.B) {
	benchExperiment(b, experiments.Table3, func(o *experiments.Output, b *testing.B) {
		rows := o.Tables[0].Rows
		b.ReportMetric(cellFloat(b, rows[0][3]), "imbalance-before-pct")
		b.ReportMetric(cellFloat(b, rows[len(rows)-1][3]), "imbalance-after-pct")
	})
}

// wholeCodeMetrics reports the 1x1 and 8x30 Dynamics/total numbers.
func wholeCodeMetrics(o *experiments.Output, b *testing.B) {
	rows := o.Tables[0].Rows
	first, last := rows[0], rows[len(rows)-1]
	b.ReportMetric(cellFloat(b, first[1]), "dyn-1x1-s/day")
	b.ReportMetric(cellFloat(b, last[1]), "dyn-8x30-s/day")
	b.ReportMetric(cellFloat(b, last[2]), "dyn-speedup-240")
	b.ReportMetric(cellFloat(b, last[3]), "total-8x30-s/day")
}

// BenchmarkTable4AGCMOldFilterParagon regenerates Table 4.
func BenchmarkTable4AGCMOldFilterParagon(b *testing.B) {
	benchExperiment(b, experiments.Table4, wholeCodeMetrics)
}

// BenchmarkTable5AGCMNewFilterParagon regenerates Table 5.
func BenchmarkTable5AGCMNewFilterParagon(b *testing.B) {
	benchExperiment(b, experiments.Table5, wholeCodeMetrics)
}

// BenchmarkTable6AGCMOldFilterT3D regenerates Table 6.
func BenchmarkTable6AGCMOldFilterT3D(b *testing.B) {
	benchExperiment(b, experiments.Table6, wholeCodeMetrics)
}

// BenchmarkTable7AGCMNewFilterT3D regenerates Table 7.
func BenchmarkTable7AGCMNewFilterT3D(b *testing.B) {
	benchExperiment(b, experiments.Table7, wholeCodeMetrics)
}

// filterTableMetrics reports the three variants' 8x30 costs and the
// convolution-to-balanced ratio.
func filterTableMetrics(o *experiments.Output, b *testing.B) {
	rows := o.Tables[0].Rows
	last := rows[len(rows)-1]
	conv := cellFloat(b, last[1])
	fft := cellFloat(b, last[2])
	lb := cellFloat(b, last[3])
	b.ReportMetric(conv, "conv-8x30-s/day")
	b.ReportMetric(fft, "fft-8x30-s/day")
	b.ReportMetric(lb, "fftlb-8x30-s/day")
	b.ReportMetric(conv/lb, "conv-over-lb")
}

// BenchmarkTable8FilterParagon9 regenerates Table 8.
func BenchmarkTable8FilterParagon9(b *testing.B) {
	benchExperiment(b, experiments.Table8, filterTableMetrics)
}

// BenchmarkTable9FilterT3D9 regenerates Table 9.
func BenchmarkTable9FilterT3D9(b *testing.B) {
	benchExperiment(b, experiments.Table9, filterTableMetrics)
}

// BenchmarkTable10FilterParagon15 regenerates Table 10.
func BenchmarkTable10FilterParagon15(b *testing.B) {
	benchExperiment(b, experiments.Table10, filterTableMetrics)
}

// BenchmarkTable11FilterT3D15 regenerates Table 11.
func BenchmarkTable11FilterT3D15(b *testing.B) {
	benchExperiment(b, experiments.Table11, filterTableMetrics)
}

// BenchmarkBlockArrayLaplace regenerates the Section 3.4 layout experiment
// (paper: 5.0x on the Paragon, 2.6x on the T3D).
func BenchmarkBlockArrayLaplace(b *testing.B) {
	var p, c singlenode.LayoutResult
	for i := 0; i < b.N; i++ {
		p = singlenode.ModelLaplaceLayout(machine.Paragon(), 32, 12)
		c = singlenode.ModelLaplaceLayout(machine.CrayT3D(), 32, 12)
	}
	b.ReportMetric(p.Speedup, "paragon-speedup")
	b.ReportMetric(c.Speedup, "t3d-speedup")
}

// BenchmarkAdvectionOptimization regenerates the Section 3.4 advection
// experiment (paper: about 35% on a T3D node).
func BenchmarkAdvectionOptimization(b *testing.B) {
	var r singlenode.AdvectionResult
	for i := 0; i < b.N; i++ {
		r = singlenode.ModelAdvection(machine.CrayT3D(), 90, 144, 9)
	}
	b.ReportMetric(r.Reduction*100, "t3d-reduction-pct")
}

// BenchmarkFig2RowRedistribution benches the Figures 2-3 generic row
// balancing plan for the paper's filtering workload shape.
func BenchmarkFig2RowRedistribution(b *testing.B) {
	counts := []int{216, 108, 0, 0, 0, 0, 108, 216}
	for i := 0; i < b.N; i++ {
		cs := append([]int(nil), counts...)
		loadbalance.PlanRows(cs)
	}
}

// BenchmarkFig46SchemePlanning benches the three physics balancing
// planners of Figures 4-6 on a 256-node load vector.
func BenchmarkFig46SchemePlanning(b *testing.B) {
	loads := make([]float64, 256)
	for i := range loads {
		loads[i] = float64((i*37)%100) + 1
	}
	b.Run("scheme1-shuffle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loadbalance.CyclicShuffleInto(nil, loads)
		}
	})
	b.Run("scheme2-greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loadbalance.SortedGreedyInto(nil, nil, loads, 1)
		}
	})
	b.Run("scheme3-pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loadbalance.Pairwise(loads, 1, 0.02, 4)
		}
	})
}

// BenchmarkWholeStepLBFFT measures one full simulated AGCM step (dynamics +
// filter + physics) on an 8x8 T3D with the adopted optimizations — the
// end-to-end cost of the simulation harness itself.
func BenchmarkWholeStepLBFFT(b *testing.B) {
	cfg := core.Config{
		Spec:    grid.TwoByTwoPointFive(9),
		Machine: machine.CrayT3D(),
		MeshPy:  8, MeshPx: 8,
		Filter:        core.FilterFFTBalanced,
		PhysicsScheme: physics.Pairwise,
		PhysicsRounds: 2,
	}
	var rep *core.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = core.Run(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Total, "virtual-s/day")
}
