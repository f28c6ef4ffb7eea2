// Filter comparison: run all four parallel filter variants on the same
// fields, verify they produce numerically identical results, and show the
// Figures 2-3 row-redistribution plan plus the per-variant cost breakdown.
//
//	go run ./examples/filtercompare
package main

import (
	"fmt"
	"log"
	"math"

	"agcm/internal/comm"
	"agcm/internal/filter"
	"agcm/internal/grid"
	"agcm/internal/loadbalance"
	"agcm/internal/machine"
	"agcm/internal/sim"
	"agcm/internal/stats"
)

// initField writes a deterministic wavy pattern.
func initField(f *grid.Field, l grid.Local, phase float64) {
	for j := 0; j < l.Nlat(); j++ {
		for i := 0; i < l.Nlon(); i++ {
			for k := 0; k < l.Nlayers(); k++ {
				f.Set(j, i, k, math.Sin(float64(l.GlobalLon(i))*0.3+phase)*
					math.Cos(float64(l.GlobalLat(j))*0.2)+0.1*float64(k))
			}
		}
	}
}

func main() {
	spec := grid.TwoByTwoPointFive(9)
	const py, px = 8, 8
	mach := machine.CrayT3D()

	// --- The Figures 2-3 story: how many filtered lines each processor
	// row holds before and after the generic row balancing. ---
	strong := filter.Rows(spec, filter.Strong)
	weak := filter.Rows(spec, filter.Weak)
	fmt.Printf("Filtered latitude rows: %d strong (poles to 45), %d weak (poles to 60) of %d\n",
		len(strong), len(weak), spec.Nlat)
	d, err := grid.NewDecomp(spec, py, px)
	if err != nil {
		log.Fatal(err)
	}
	counts := make([]int, py)
	// Two strong variables (u, v) and one weak (h), all layers.
	for _, j := range strong {
		counts[d.RowOfLat(j)] += 2 * spec.Nlayers
	}
	for _, j := range weak {
		counts[d.RowOfLat(j)] += spec.Nlayers
	}
	fmt.Printf("lines per processor row before balancing: %v\n", counts)
	_, targets := loadbalance.PlanRows(append([]int(nil), counts...))
	fmt.Printf("lines per processor row after balancing:  %v (Eq. 3)\n\n", targets)

	// --- Run every variant; verify equivalence; report virtual cost. ---
	variants := []string{"convolution-ring", "convolution-tree", "fft", "fft-load-balanced"}
	results := map[string][]float64{}
	times := map[string]float64{}
	imb := map[string]float64{}
	for _, name := range variants {
		name := name
		var gathered []float64
		m := sim.New(py*px, mach)
		res, err := m.Run(func(p *sim.Proc) error {
			world := comm.World(p)
			cart := comm.NewCart2D(world, py, px)
			l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
			u := grid.NewField(l, 1)
			v := grid.NewField(l, 1)
			h := grid.NewField(l, 1)
			initField(u, l, 0)
			initField(v, l, 1)
			initField(h, l, 2)
			vars := []filter.Variable{
				{Name: "u", Kind: filter.Strong, Field: u},
				{Name: "v", Kind: filter.Strong, Field: v},
				{Name: "h", Kind: filter.Weak, Field: h},
			}
			var flt filter.Parallel
			switch name {
			case "convolution-ring":
				flt = filter.NewConvolution(cart, spec, l, filter.Ring)
			case "convolution-tree":
				flt = filter.NewConvolution(cart, spec, l, filter.Tree)
			case "fft":
				flt = filter.NewFFT(cart, spec, l, false)
			case "fft-load-balanced":
				flt = filter.NewFFT(cart, spec, l, true)
			}
			p.Account(sim.Filter, func() { flt.Apply(vars) })
			g := grid.Gather(world, cart, u)
			if world.Rank() == 0 {
				gathered = g
			}
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		results[name] = gathered
		times[name] = res.MaxAccount(sim.Filter)
		imb[name] = loadbalance.Imbalance(res.Accounts[sim.Filter])
	}

	// Equivalence check against the first variant.
	ref := results[variants[0]]
	for _, name := range variants[1:] {
		worst := 0.0
		for i, v := range results[name] {
			if dd := math.Abs(v - ref[i]); dd > worst {
				worst = dd
			}
		}
		fmt.Printf("max |%s - %s| = %.2e\n", name, variants[0], worst)
		if worst > 1e-9 {
			log.Fatalf("variant %s diverges from %s", name, variants[0])
		}
	}

	fmt.Println("\nAll variants numerically equivalent. Cost of one filter application")
	fmt.Printf("on an %dx%d %s:\n\n", py, px, mach.Name)
	tbl := &stats.Table{Header: []string{"Variant", "Virtual time (ms)", "Load imbalance"}}
	for _, name := range variants {
		tbl.AddRow(name, fmt.Sprintf("%.2f", times[name]*1e3), stats.Percent(imb[name]))
	}
	fmt.Print(tbl.Render())
}
