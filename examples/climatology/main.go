// Climatology: integrate the AGCM for half a simulated day on a 4x4 mesh
// with full physics, watch the conserved integrals, print the zonal-mean
// circulation, and demonstrate checkpoint/restart through the history file.
//
//	go run ./examples/climatology
package main

import (
	"bytes"
	"fmt"
	"log"

	"agcm/internal/comm"
	"agcm/internal/diag"
	"agcm/internal/dynamics"
	"agcm/internal/filter"
	"agcm/internal/grid"
	"agcm/internal/history"
	"agcm/internal/machine"
	"agcm/internal/physics"
	"agcm/internal/sim"
	"agcm/internal/stats"
)

func main() {
	spec := grid.TwoByTwoPointFive(9)
	const py, px = 4, 4
	dt := 0.8 * dynamics.CFLTimeStep(spec, filter.Strong.CritLat())
	stepsPerDay := int(86400/dt) + 1
	steps := stepsPerDay / 2

	d, err := grid.NewDecomp(spec, py, px)
	if err != nil {
		log.Fatal(err)
	}

	var checkpoint *history.File
	var zonalU, zonalT []float64
	var diags []diag.Global

	m := sim.New(py*px, machine.CrayT3D())
	res, err := m.Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, py, px)
		l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
		s := dynamics.NewState(l)
		dynamics.InitSolidBody(s, 20, 4)
		dy := dynamics.New(cart, spec, l, dt, filter.NewFFT(cart, spec, l, true))
		dy.SetVerticalDiffusion(0.1)
		phys := physics.NewRunner(world, cart, l,
			physics.NewModel(spec, stepsPerDay), physics.Pairwise, 2)

		for n := 0; n < steps; n++ {
			if n%(steps/4) == 0 {
				g := diag.Compute(world, l, s)
				if world.Rank() == 0 {
					diags = append(diags, g)
				}
			}
			dy.Step(s)
			p.Account(sim.Physics, func() { phys.Step(s.T, s.Q, n) })
		}
		// Checkpoint mid-run (round-trips through serialized bytes).
		file := dynamics.SaveState(world, cart, s)
		if world.Rank() == 0 {
			var buf bytes.Buffer
			if err := history.WriteFrame(&buf, file); err != nil {
				return err
			}
			restored, err := history.Read(&buf)
			if err != nil {
				return err
			}
			checkpoint = restored
		}
		zu := diag.ZonalMean(world, cart, s.U)
		zt := diag.ZonalMean(world, cart, s.T)
		if world.Rank() == 0 {
			zonalU, zonalT = zu, zt
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Half a simulated day (%d steps of %.0f s) on a 4x4 Cray T3D\n", steps, dt)
	fmt.Printf("virtual wall time: %.1f s (%.1f s/simulated day)\n\n",
		res.MaxClock(), res.MaxClock()*2)

	fmt.Println("Conserved integrals (sampled every quarter run):")
	tbl := &stats.Table{Header: []string{"Sample", "Mass (rel.)", "Total energy (rel.)", "Max wind m/s", "Mean T (K)"}}
	for i, g := range diags {
		tbl.AddRow(fmt.Sprintf("%d", i),
			fmt.Sprintf("%.8f", g.Mass/diags[0].Mass),
			fmt.Sprintf("%.6f", g.TotalEnergy()/diags[0].TotalEnergy()),
			fmt.Sprintf("%.1f", g.MaxWind),
			fmt.Sprintf("%.1f", g.MeanT))
	}
	fmt.Print(tbl.Render())

	fmt.Println("\nZonal-mean circulation (selected latitudes):")
	zt := &stats.Table{Header: []string{"Latitude", "mean u (m/s)", "mean T (K)"}}
	for _, j := range []int{0, 15, 30, 45, 60, 75, 89} {
		latDeg := spec.LatCenter(j) * 180 / 3.14159265358979
		zt.AddRow(fmt.Sprintf("%+.1f", latDeg),
			fmt.Sprintf("%.1f", zonalU[j]),
			fmt.Sprintf("%.1f", zonalT[j]))
	}
	fmt.Print(zt.Render())

	fmt.Printf("\ncheckpoint written and re-read: step %d, %d variables — restart-ready\n",
		checkpoint.Step, len(checkpoint.Names))
}
