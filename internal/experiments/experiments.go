// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulated machines: Figure 1's component breakdown,
// Tables 1-3 (physics load-balancing), Tables 4-7 (whole-code timings with
// the old and new filter on Paragon and T3D), Tables 8-11 (filter-only
// timings for three variants at 9 and 15 layers), and the Section 3.4
// single-node results — plus the ablations the paper's design discussion
// implies (ring vs tree, balancing schemes, iteration counts).
//
// Absolute seconds come from calibrated machine models; the claims to check
// are the paper's shapes: who wins, by what factor, and how the advantage
// moves with the processor count.
package experiments

import (
	"fmt"

	"agcm/internal/core"
	"agcm/internal/grid"
	"agcm/internal/loadbalance"
	"agcm/internal/machine"
	"agcm/internal/physics"
	"agcm/internal/singlenode"
	"agcm/internal/stats"
)

// Output is one regenerated experiment: an identifier matching the paper's
// numbering, rendered tables, and free-form notes comparing with the paper.
type Output struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Notes  []string
}

// Options tune experiment fidelity versus runtime.
type Options struct {
	// MeasuredSteps is the number of time steps measured per run
	// (after warmup); more steps average the physics variability.
	MeasuredSteps int
	// Topology and Placement, when set, install a routed interconnect
	// model (see topology.ByName) on every run that does not choose its
	// own — rerunning the paper's tables under hop latency and injection
	// queueing instead of the flat network.
	Topology  string
	Placement string
}

// DefaultOptions returns the settings used by the command-line harness.
func DefaultOptions() Options { return Options{MeasuredSteps: 3} }

func (o Options) steps() int {
	if o.MeasuredSteps < 1 {
		return 3
	}
	return o.MeasuredSteps
}

// meshes used by the paper's whole-code tables (Tables 4-7).
var wholeCodeMeshes = [][2]int{{1, 1}, {4, 4}, {8, 8}, {8, 30}}

// meshes used by the filter tables (Tables 8-11).
var filterMeshes = [][2]int{{4, 4}, {4, 8}, {8, 8}, {4, 30}, {8, 30}}

func meshName(py, px int) string { return fmt.Sprintf("%d x %d", py, px) }

func run(cfg core.Config, opt Options) (*core.Report, error) {
	// A harness-wide topology (agcmbench -topology) applies to every run
	// that does not pick its own; "none" opts a run out explicitly.
	if cfg.Topology == "" && opt.Topology != "" {
		cfg.Topology = opt.Topology
		cfg.Placement = opt.Placement
	}
	return core.Run(cfg, opt.steps())
}

// --- Figure 1 --------------------------------------------------------------

// Figure1 reproduces the execution-time breakdown of the original code:
// the Dynamics share of the main body and the filtering share of Dynamics,
// on 16 and 240 Paragon nodes.
func Figure1(opt Options) (*Output, error) {
	spec := grid.TwoByTwoPointFive(9)
	tbl := &stats.Table{
		Title:  "Figure 1: component shares, original (convolution) code, Intel Paragon",
		Header: []string{"Node mesh", "Dynamics s/day", "Total s/day", "Dynamics/Total", "Filter/Dynamics"},
	}
	notes := []string{
		"Paper: Dynamics 72% of main body and filtering 36% of Dynamics on 16 nodes;",
		"86% and 49% on 240 nodes.",
	}
	for _, mesh := range [][2]int{{4, 4}, {8, 30}} {
		rep, err := run(core.Config{
			Spec: spec, Machine: machine.Paragon(),
			MeshPy: mesh[0], MeshPx: mesh[1],
			Filter:        core.FilterConvolutionRing,
			PhysicsScheme: physics.None,
		}, opt)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(meshName(mesh[0], mesh[1]),
			stats.Seconds(rep.Dynamics), stats.Seconds(rep.Total),
			stats.Percent(rep.Dynamics/rep.Total),
			stats.Percent(rep.FilterTime/rep.Dynamics))
	}
	return &Output{ID: "fig1", Title: "Figure 1", Tables: []*stats.Table{tbl}, Notes: notes}, nil
}

// --- Tables 1-3 ------------------------------------------------------------

// physicsLB runs the unbalanced physics on a T3D mesh, measures the
// per-rank loads, and applies the scheme-3 pairwise balancer twice — the
// paper's load-balancing simulation.
func physicsLB(py, px int, opt Options) (*stats.Table, error) {
	spec := grid.TwoByTwoPointFive(9)
	rep, err := run(core.Config{
		Spec: spec, Machine: machine.CrayT3D(),
		MeshPy: py, MeshPx: px,
		Filter:        core.FilterFFTBalanced,
		PhysicsScheme: physics.None,
	}, opt)
	if err != nil {
		return nil, err
	}
	loads := rep.PhysicsLoads
	perCol := 0.0
	cols := spec.Nlon * spec.Nlat
	for _, v := range loads {
		perCol += v
	}
	perCol /= float64(cols)
	hist := loadbalance.Pairwise(loads, perCol, 0, 2)
	tbl := &stats.Table{
		Title: fmt.Sprintf("Physics load-balancing simulation, 2x2.5x9, %s node array, Cray T3D",
			meshName(py, px)),
		Header: []string{"Code status", "Max load (s/day)", "Min load (s/day)", "% imbalance"},
	}
	labels := []string{"Before load-balancing", "After first load-balancing", "After second load-balancing"}
	for i, h := range hist {
		label := labels[min(i, len(labels)-1)]
		tbl.AddRow(label, stats.Seconds(h.MaxLoad), stats.Seconds(h.MinLoad), stats.Percent(h.Imbalance))
	}
	return tbl, nil
}

// Table1 is the 8x8 (64-node) physics load-balancing simulation.
func Table1(opt Options) (*Output, error) {
	tbl, err := physicsLB(8, 8, opt)
	if err != nil {
		return nil, err
	}
	return &Output{ID: "table1", Title: "Table 1", Tables: []*stats.Table{tbl},
		Notes: []string{"Paper: 37% -> 9% -> 6% on an 8x8 T3D array."}}, nil
}

// Table2 is the 9x14 (126-node) simulation.
func Table2(opt Options) (*Output, error) {
	tbl, err := physicsLB(9, 14, opt)
	if err != nil {
		return nil, err
	}
	return &Output{ID: "table2", Title: "Table 2", Tables: []*stats.Table{tbl},
		Notes: []string{"Paper: 35% -> 12% -> 5% on a 9x14 T3D array."}}, nil
}

// Table3 is the 14x18 (252-node) simulation.
func Table3(opt Options) (*Output, error) {
	tbl, err := physicsLB(14, 18, opt)
	if err != nil {
		return nil, err
	}
	return &Output{ID: "table3", Title: "Table 3", Tables: []*stats.Table{tbl},
		Notes: []string{"Paper: 48% -> 12.5% -> 6% on a 14x18 T3D array."}}, nil
}

// --- Tables 4-7 ------------------------------------------------------------

// wholeCode generates one of Tables 4-7: whole-AGCM timings across meshes
// for one machine and one filter variant.
func wholeCode(id, title string, mach *machine.Model, fv core.FilterVariant,
	paperNote string, opt Options) (*Output, error) {
	spec := grid.TwoByTwoPointFive(9)
	tbl := &stats.Table{
		Title:  title,
		Header: []string{"Node mesh", "Dynamics", "Dynamics speed-up", "Total time"},
	}
	var dyn1 float64
	for _, mesh := range wholeCodeMeshes {
		rep, err := run(core.Config{
			Spec: spec, Machine: mach,
			MeshPy: mesh[0], MeshPx: mesh[1],
			Filter:        fv,
			PhysicsScheme: physics.None,
		}, opt)
		if err != nil {
			return nil, err
		}
		if mesh[0] == 1 && mesh[1] == 1 {
			dyn1 = rep.Dynamics
		}
		tbl.AddRow(meshName(mesh[0], mesh[1]),
			stats.Seconds(rep.Dynamics),
			stats.Ratio(stats.Speedup(dyn1, rep.Dynamics)),
			stats.Seconds(rep.Total))
	}
	return &Output{ID: id, Title: title, Tables: []*stats.Table{tbl},
		Notes: []string{paperNote}}, nil
}

// Table4 is the old-filter whole-code timing on the Paragon.
func Table4(opt Options) (*Output, error) {
	return wholeCode("table4",
		"Table 4: AGCM timings (s/simulated day), old filtering module, Intel Paragon, 2x2.5x9",
		machine.Paragon(), core.FilterConvolutionRing,
		"Paper: 8702 / 848.5 / 366 / 186 Dynamics; 14010 / 1177 / 443.5 / 216 total.", opt)
}

// Table5 is the new-filter whole-code timing on the Paragon.
func Table5(opt Options) (*Output, error) {
	return wholeCode("table5",
		"Table 5: AGCM timings (s/simulated day), new filtering module, Intel Paragon, 2x2.5x9",
		machine.Paragon(), core.FilterFFTBalanced,
		"Paper: 8075 / 639 / 207.5 / 87.2 Dynamics; 11225 / 992.6 / 306 / 119 total.", opt)
}

// Table6 is the old-filter whole-code timing on the T3D.
func Table6(opt Options) (*Output, error) {
	return wholeCode("table6",
		"Table 6: AGCM timings (s/simulated day), old filtering module, Cray T3D, 2x2.5x9",
		machine.CrayT3D(), core.FilterConvolutionRing,
		"Paper: 3480 / 339 / 146 / 74 Dynamics; 5600 / 470 / 177 / 87.5 total.", opt)
}

// Table7 is the new-filter whole-code timing on the T3D.
func Table7(opt Options) (*Output, error) {
	return wholeCode("table7",
		"Table 7: AGCM timings (s/simulated day), new filtering module, Cray T3D, 2x2.5x9",
		machine.CrayT3D(), core.FilterFFTBalanced,
		"Paper: 3230 / 256 / 83 / 35 Dynamics; 4990 / 397 / 122 / 48 total.", opt)
}

// --- Tables 8-11 -----------------------------------------------------------

// filterTimes generates one of Tables 8-11: per-variant filtering cost
// across meshes for one machine and layer count.
func filterTimes(id, title string, mach *machine.Model, layers int,
	paperNote string, opt Options) (*Output, error) {
	spec := grid.TwoByTwoPointFive(layers)
	variants := []core.FilterVariant{
		core.FilterConvolutionRing, core.FilterFFT, core.FilterFFTBalanced,
	}
	tbl := &stats.Table{
		Title:  title,
		Header: []string{"Node mesh", "Convolution", "FFT without LB", "FFT with LB"},
	}
	for _, mesh := range filterMeshes {
		row := []string{meshName(mesh[0], mesh[1])}
		for _, fv := range variants {
			rep, err := run(core.Config{
				Spec: spec, Machine: mach,
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
	return &Output{ID: id, Title: title, Tables: []*stats.Table{tbl},
		Notes: []string{paperNote}}, nil
}

// Table8 is the 9-layer filter timing on the Paragon.
func Table8(opt Options) (*Output, error) {
	return filterTimes("table8",
		"Table 8: total filtering times (s/simulated day), Intel Paragon, 2x2.5x9",
		machine.Paragon(), 9,
		"Paper: conv 309.5..90.0, FFT 111.4..37.5, FFT+LB 87.7..18.5 across the meshes.", opt)
}

// Table9 is the 9-layer filter timing on the T3D.
func Table9(opt Options) (*Output, error) {
	return filterTimes("table9",
		"Table 9: total filtering times (s/simulated day), Cray T3D, 2x2.5x9",
		machine.CrayT3D(), 9,
		"Paper: conv 123.5..36.0, FFT 44.6..15.0, FFT+LB 35.1..7.4 across the meshes.", opt)
}

// Table10 is the 15-layer filter timing on the Paragon.
func Table10(opt Options) (*Output, error) {
	return filterTimes("table10",
		"Table 10: total filtering times (s/simulated day), Intel Paragon, 2x2.5x15",
		machine.Paragon(), 15,
		"Paper: conv 802..188, FFT 304..81, FFT+LB 221..37 across the meshes.", opt)
}

// Table11 is the 15-layer filter timing on the T3D.
func Table11(opt Options) (*Output, error) {
	return filterTimes("table11",
		"Table 11: total filtering times (s/simulated day), Cray T3D, 2x2.5x15",
		machine.CrayT3D(), 15,
		"Paper: conv 320..75, FFT 121..32, FFT+LB 88..15 across the meshes.", opt)
}

// --- Section 3.4 single-node experiments -----------------------------------

// BlockArray reproduces the block-array versus separate-arrays Laplace
// experiment on every modelled machine.
func BlockArray(opt Options) (*Output, error) {
	tbl := &stats.Table{
		Title:  "Section 3.4: 7-point Laplace on m=12 fields of 32^3, separate vs block arrays",
		Header: []string{"Machine", "Separate (s)", "Block (s)", "Sep miss rate", "Block miss rate", "Speed-up"},
	}
	for _, node := range singlenode.Nodes() {
		r := singlenode.ModelLaplaceLayout(node, 32, 12)
		tbl.AddRow(node.Name,
			fmt.Sprintf("%.3f", r.SeparateSeconds),
			fmt.Sprintf("%.3f", r.BlockSeconds),
			stats.Percent(r.SeparateMissRate),
			stats.Percent(r.BlockMissRate),
			fmt.Sprintf("%.1fx", r.Speedup))
	}
	return &Output{ID: "blockarray", Title: "Block-array layout experiment",
		Tables: []*stats.Table{tbl},
		Notes:  []string{"Paper: speed-up 5.0x on the Intel Paragon and 2.6x on the Cray T3D."}}, nil
}

// Advection reproduces the advection-routine optimization experiment.
func Advection(opt Options) (*Output, error) {
	tbl := &stats.Table{
		Title:  "Section 3.4: advection routine, original vs optimized, 144x90x9",
		Header: []string{"Machine", "Original (s)", "Optimized (s)", "Reduction"},
	}
	for _, node := range singlenode.Nodes() {
		r := singlenode.ModelAdvection(node, 90, 144, 9)
		tbl.AddRow(node.Name,
			fmt.Sprintf("%.3f", r.OriginalSeconds),
			fmt.Sprintf("%.3f", r.OptimizedSeconds),
			stats.Percent(r.Reduction))
	}
	return &Output{ID: "advection", Title: "Advection optimization",
		Tables: []*stats.Table{tbl},
		Notes:  []string{"Paper: about 35% reduction on a single Cray T3D node."}}, nil
}

// table is every experiment in paper order, then the ablations and the
// later studies — the one list All, ByID and IDs read.
var table = []struct {
	id string
	fn func(Options) (*Output, error)
}{
	{"fig1", Figure1}, {"table1", Table1}, {"table2", Table2}, {"table3", Table3},
	{"table4", Table4}, {"table5", Table5}, {"table6", Table6}, {"table7", Table7},
	{"table8", Table8}, {"table9", Table9}, {"table10", Table10}, {"table11", Table11},
	{"blockarray", BlockArray}, {"advection", Advection},
	{"ablation-schemes", AblationPhysicsSchemes},
	{"ablation-topology", AblationRingVsTree},
	{"ablation-rounds", AblationPairwiseRounds},
	{"ablation-comm", AblationCommPatterns},
	{"ablation-polar", AblationPolarTreatment},
	{"ablation-sp2", AblationSP2},
	{"ablation-degraded", AblationDegradedNode},
	{"ablation-resolution", AblationResolution},
	{"ablation-layers", AblationLayerScaling},
	{"crash-recovery", CrashRecovery},
	{"interconnect", Interconnect},
	{"scheduling", Scheduling},
	{"roofline", Roofline},
}

// All runs every experiment in table order.
func All(opt Options) ([]*Output, error) {
	outs := make([]*Output, 0, len(table))
	for _, e := range table {
		o, err := e.fn(opt)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// ByID runs the named experiment.
func ByID(id string, opt Options) (*Output, error) {
	for _, e := range table {
		if e.id == id {
			return e.fn(opt)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// IDs lists the valid experiment identifiers, in table order.
func IDs() []string {
	ids := make([]string, len(table))
	for i, e := range table {
		ids[i] = e.id
	}
	return ids
}
