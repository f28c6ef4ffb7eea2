package dynamics

import (
	"bytes"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"agcm/internal/comm"
	"agcm/internal/filter"
	"agcm/internal/grid"
	"agcm/internal/history"
	"agcm/internal/machine"
	"agcm/internal/sim"
)

func TestRestartEquivalence(t *testing.T) {
	// Run 12 steps continuously, versus run 7, save, load into a fresh
	// model, run 5 more: the final fields must be identical.
	spec := testSpec
	dt := 0.5 * CFLTimeStep(spec, filter.Strong.CritLat())
	const py, px = 2, 2
	d, _ := grid.NewDecomp(spec, py, px)

	runSteps := func(s *State, dy *Dynamics, n int) {
		for i := 0; i < n; i++ {
			dy.Step(s)
		}
	}

	var continuous, resumed [][]float64
	var checkpoint *history.File

	// Continuous 12-step run.
	m := sim.New(py*px, machine.CrayT3D())
	_, err := m.Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, py, px)
		l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
		s := NewState(l)
		InitSolidBody(s, 20, 4)
		dy := New(cart, spec, l, dt, filter.NewFFT(cart, spec, l, true))
		runSteps(s, dy, 12)
		if g := grid.Gather(world, cart, s.H); world.Rank() == 0 {
			continuous = append(continuous, g)
		}
		if g := grid.Gather(world, cart, s.U); world.Rank() == 0 {
			continuous = append(continuous, g)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// 7 steps, checkpoint through a serialized byte stream.
	m = sim.New(py*px, machine.CrayT3D())
	_, err = m.Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, py, px)
		l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
		s := NewState(l)
		InitSolidBody(s, 20, 4)
		dy := New(cart, spec, l, dt, filter.NewFFT(cart, spec, l, true))
		runSteps(s, dy, 7)
		file := SaveState(world, cart, s)
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checkpoint == nil || checkpoint.Step != 7 {
		t.Fatalf("checkpoint missing or wrong step: %+v", checkpoint)
	}

	// Fresh model, load, 5 more steps.
	m = sim.New(py*px, machine.CrayT3D())
	_, err = m.Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, py, px)
		l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
		s := NewState(l)
		var file *history.File
		if world.Rank() == 0 {
			file = checkpoint
		}
		dy := New(cart, spec, l, dt, filter.NewFFT(cart, spec, l, true))
		if err := LoadState(world, cart, file, s); err != nil {
			return err
		}
		if s.Steps != 7 {
			return fmt.Errorf("restored step counter %d", s.Steps)
		}
		runSteps(s, dy, 5)
		if g := grid.Gather(world, cart, s.H); world.Rank() == 0 {
			resumed = append(resumed, g)
		}
		if g := grid.Gather(world, cart, s.U); world.Rank() == 0 {
			resumed = append(resumed, g)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for fi := range continuous {
		for idx := range continuous[fi] {
			if continuous[fi][idx] != resumed[fi][idx] {
				t.Fatalf("restart diverged: field %d index %d: %g vs %g",
					fi, idx, continuous[fi][idx], resumed[fi][idx])
			}
		}
	}
}

func TestLoadStateRejectsWrongGrid(t *testing.T) {
	spec := testSpec
	other := grid.Spec{Nlon: 12, Nlat: 8, Nlayers: 2}
	dOther, _ := grid.NewDecomp(other, 1, 1)
	var bad *history.File
	m := sim.New(1, machine.CrayT3D())
	_, err := m.Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, 1, 1)
		s := NewState(grid.NewLocal(dOther, 0, 0))
		bad = SaveState(world, cart, s)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := grid.NewDecomp(spec, 2, 2)
	m = sim.New(4, machine.CrayT3D())
	_, err = m.Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, 2, 2)
		s := NewState(grid.NewLocal(d, cart.MyRow, cart.MyCol))
		var file *history.File
		if world.Rank() == 0 {
			file = bad
		}
		if err := LoadState(world, cart, file, s); err == nil {
			return fmt.Errorf("wrong-grid restart accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVerticalDiffusionMixesAndConserves(t *testing.T) {
	spec := grid.Spec{Nlon: 8, Nlat: 6, Nlayers: 5}
	d, _ := grid.NewDecomp(spec, 1, 1)
	m := sim.New(1, machine.CrayT3D())
	_, err := m.Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, 1, 1)
		l := grid.NewLocal(d, 0, 0)
		s := NewState(l)
		// A sharply sheared column.
		for k := 0; k < 5; k++ {
			s.U.Set(2, 3, k, float64(k*k))
		}
		dy := New(cart, spec, l, 100, nil)
		dy.SetVerticalDiffusion(0.5)
		before := append([]float64(nil), s.U.Column(2, 3)...)
		var sum0 float64
		for _, v := range before {
			sum0 += v
		}
		dy.verticalDiffusion(s)
		after := s.U.Column(2, 3)
		var sum1, var0, var1 float64
		for k := range after {
			sum1 += after[k]
		}
		mean := sum0 / 5
		for k := range after {
			var0 += (before[k] - mean) * (before[k] - mean)
			var1 += (after[k] - sum1/5) * (after[k] - sum1/5)
		}
		// No-flux boundaries conserve the column integral.
		if math.Abs(sum1-sum0) > 1e-9 {
			return fmt.Errorf("column momentum not conserved: %g -> %g", sum0, sum1)
		}
		// Diffusion reduces vertical variance.
		if var1 >= var0 {
			return fmt.Errorf("diffusion did not smooth: variance %g -> %g", var0, var1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSetVerticalDiffusionValidation(t *testing.T) {
	d, _ := grid.NewDecomp(testSpec, 1, 1)
	m := sim.New(1, machine.CrayT3D())
	_, err := m.Run(func(p *sim.Proc) error {
		cart := comm.NewCart2D(comm.World(p), 1, 1)
		dy := New(cart, testSpec, grid.NewLocal(d, 0, 0), 100, nil)
		dy.SetVerticalDiffusion(-1)
		return nil
	})
	if err == nil {
		t.Fatal("negative diffusion accepted")
	}
}

// TestLoadStateRejectsTruncatedFile: a restart file with a right-sized but
// wrong-named variable set (as left by a torn write) must be rejected on
// every rank by the up-front validation — not discovered mid-scatter on
// rank 0 alone, which would leave the other ranks deadlocked in the
// collective.
func TestLoadStateRejectsTruncatedFile(t *testing.T) {
	spec := testSpec
	const py, px = 2, 2
	d, _ := grid.NewDecomp(spec, py, px)

	var good *history.File
	m := sim.New(py*px, machine.CrayT3D())
	_, err := m.Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, py, px)
		s := NewState(grid.NewLocal(d, cart.MyRow, cart.MyCol))
		InitSolidBody(s, 20, 4)
		if f := SaveState(world, cart, s); world.Rank() == 0 {
			good = f
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(mutate func(f *history.File)) *history.File {
		f := &history.File{Spec: good.Spec, Step: good.Step,
			Names: append([]string(nil), good.Names...),
			Data:  append([][]float64(nil), good.Data...)}
		mutate(f)
		return f
	}
	cases := []struct {
		name string
		file *history.File
	}{
		{"variable missing", corrupt(func(f *history.File) {
			f.Names = f.Names[:len(f.Names)-1]
			f.Data = f.Data[:len(f.Data)-1]
		})},
		{"variable renamed", corrupt(func(f *history.File) {
			f.Names[len(f.Names)-1] = "bogus"
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rejections atomic.Int32
			m := sim.New(py*px, machine.CrayT3D())
			_, err := m.Run(func(p *sim.Proc) error {
				world := comm.World(p)
				cart := comm.NewCart2D(world, py, px)
				s := NewState(grid.NewLocal(d, cart.MyRow, cart.MyCol))
				var file *history.File
				if world.Rank() == 0 {
					file = tc.file
				}
				if err := LoadState(world, cart, file, s); err != nil {
					rejections.Add(1)
					return nil
				}
				return fmt.Errorf("rank %d: corrupt restart accepted", world.Rank())
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := rejections.Load(); got != py*px {
				t.Fatalf("%d ranks rejected the file, want all %d", got, py*px)
			}
		})
	}
}
