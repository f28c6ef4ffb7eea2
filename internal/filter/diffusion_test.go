package filter

import (
	"fmt"
	"math"
	"testing"

	"agcm/internal/comm"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/sim"
)

func TestStrength(t *testing.T) {
	crit := Strong.CritLat()
	// At or equatorward of the critical latitude: no diffusion.
	if Strength(crit, crit) != 0 {
		t.Errorf("diffusion at the critical latitude should be zero")
	}
	if Strength(0.1, crit) != 0 {
		t.Errorf("diffusion equatorward of crit should be zero")
	}
	// Poleward: positive and increasing toward the pole.
	k70 := Strength(70*math.Pi/180, crit)
	k85 := Strength(85*math.Pi/180, crit)
	if k70 <= 0 || k85 <= k70 {
		t.Errorf("diffusion strengths k70=%g k85=%g not increasing poleward", k70, k85)
	}
	// Symmetric in hemisphere.
	if Strength(-70*math.Pi/180, crit) != k70 {
		t.Errorf("diffusion not hemisphere-symmetric")
	}
}

func TestStrengthDominatesSpectralDamping(t *testing.T) {
	// The design requirement: the implicit diffusion's damping
	// 1/(1+4K sin^2(pi s/N)) must not exceed S(s, lat) wherever S < 1.
	const n = 144
	crit := Strong.CritLat()
	for _, latDeg := range []float64{50, 65, 80, 88} {
		lat := latDeg * math.Pi / 180
		k := Strength(lat, crit)
		for s := 1; s <= n/2; s++ {
			sigma := math.Sin(math.Pi * float64(s) / n)
			g := 1 / (1 + 4*k*sigma*sigma)
			sDamp := Damping(n, s, lat, crit)
			if sDamp < 1 && g > sDamp+1e-9 {
				t.Fatalf("lat %g s=%d: diffusion damping %g weaker than spectral %g",
					latDeg, s, g, sDamp)
			}
		}
	}
}

func TestPolarDiffusionPreservesZonalMean(t *testing.T) {
	spec := grid.Spec{Nlon: 24, Nlat: 16, Nlayers: 2}
	d, _ := grid.NewDecomp(spec, 2, 2)
	m := sim.New(4, machine.CrayT3D())
	_, err := m.Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, 2, 2)
		l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
		f := grid.NewField(l, 1)
		for j := 0; j < l.Nlat(); j++ {
			for i := 0; i < l.Nlon(); i++ {
				for k := 0; k < 2; k++ {
					f.Set(j, i, k, math.Sin(float64(l.GlobalLon(i)))*float64(k+1)+3)
				}
			}
		}
		vars := []Variable{{Name: "u", Kind: Strong, Field: f}}
		// Compute the pre-filter zonal means of my local filtered rows.
		type key struct{ j, k int }
		means := map[key]float64{}
		for j := 0; j < l.Nlat(); j++ {
			if !IsFiltered(spec, Strong, l.GlobalLat(j)) {
				continue
			}
			for k := 0; k < 2; k++ {
				row := f.RowSlice(j, k, nil)
				sum := 0.0
				for _, v := range row {
					sum += v
				}
				// Sum across the full circle.
				means[key{j, k}] = cart.Row.AllreduceInto([]float64{sum}, nil, comm.SumOp)[0]
			}
		}
		NewPolarDiffusion(cart, spec, l).Apply(vars)
		for j := 0; j < l.Nlat(); j++ {
			if !IsFiltered(spec, Strong, l.GlobalLat(j)) {
				continue
			}
			for k := 0; k < 2; k++ {
				row := f.RowSlice(j, k, nil)
				sum := 0.0
				for _, v := range row {
					sum += v
				}
				got := cart.Row.AllreduceInto([]float64{sum}, nil, comm.SumOp)[0]
				if math.Abs(got-means[key{j, k}]) > 1e-9 {
					return fmt.Errorf("zonal mean changed at j=%d k=%d: %g -> %g",
						j, k, means[key{j, k}], got)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPolarDiffusionDecompositionInvariant(t *testing.T) {
	// The diffusion result must not depend on the processor mesh.
	spec := grid.Spec{Nlon: 36, Nlat: 24, Nlayers: 3}
	runIt := func(py, px int) [][]float64 {
		d, err := grid.NewDecomp(spec, py, px)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]float64, 4)
		m := sim.New(py*px, machine.CrayT3D())
		_, err = m.Run(func(p *sim.Proc) error {
			world := comm.World(p)
			cart := comm.NewCart2D(world, py, px)
			l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
			vars := newVars(l)
			NewPolarDiffusion(cart, spec, l).Apply(vars)
			for vi, v := range vars {
				g := grid.Gather(world, cart, v.Field)
				if world.Rank() == 0 {
					out[vi] = g
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := runIt(1, 1)
	for _, mesh := range [][2]int{{1, 4}, {3, 2}, {4, 3}} {
		got := runIt(mesh[0], mesh[1])
		for vi := range want {
			for idx := range want[vi] {
				if math.Abs(got[vi][idx]-want[vi][idx]) > 1e-8 {
					t.Fatalf("mesh %v: variable %d index %d differs: %g vs %g",
						mesh, vi, idx, got[vi][idx], want[vi][idx])
				}
			}
		}
	}
}

func TestPolarDiffusionDampsShortWaves(t *testing.T) {
	spec := grid.Spec{Nlon: 32, Nlat: 16, Nlayers: 1}
	d, _ := grid.NewDecomp(spec, 1, 1)
	m := sim.New(1, machine.CrayT3D())
	_, err := m.Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, 1, 1)
		l := grid.NewLocal(d, 0, 0)
		f := grid.NewField(l, 1)
		// A 2-grid-interval wave on the polar-most row.
		for i := 0; i < 32; i++ {
			f.Set(0, i, 0, math.Pow(-1, float64(i)))
		}
		NewPolarDiffusion(cart, spec, l).Apply([]Variable{{Name: "u", Kind: Strong, Field: f}})
		max := 0.0
		for i := 0; i < 32; i++ {
			if v := math.Abs(f.At(0, i, 0)); v > max {
				max = v
			}
		}
		wantMax := Damping(32, 16, spec.LatCenter(0), Strong.CritLat())
		if max > wantMax+1e-9 {
			return fmt.Errorf("shortest wave damped to %g, need <= %g", max, wantMax)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
