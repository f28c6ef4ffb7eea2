package dynamics

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"agcm/internal/comm"
	"agcm/internal/filter"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/sim"
)

// testSpec is a reduced grid that keeps the tests fast while preserving the
// polar-CFL structure (10-degree longitudes, 7.5-degree latitudes).
var testSpec = grid.Spec{Nlon: 36, Nlat: 24, Nlayers: 2}

// runModel integrates `steps` time steps on a py*px mesh and returns the
// gathered global U, V, H fields and the per-rank sim result.
func runModel(t *testing.T, spec grid.Spec, py, px, steps int, dt float64,
	useFilter bool) ([][]float64, *sim.Result) {
	t.Helper()
	d, err := grid.NewDecomp(spec, py, px)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, 3)
	m := sim.New(py*px, machine.CrayT3D())
	res, err := m.Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, py, px)
		l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
		s := NewState(l)
		InitSolidBody(s, 20, 4)
		var flt filter.Parallel
		if useFilter {
			flt = filter.NewFFT(cart, spec, l, true)
		}
		dy := New(cart, spec, l, dt, flt)
		for n := 0; n < steps; n++ {
			dy.Step(s)
		}
		for fi, f := range []*grid.Field{s.U, s.V, s.H} {
			g := grid.Gather(world, cart, f)
			if world.Rank() == 0 {
				out[fi] = g
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, res
}

func TestCFLTimeStepGeometry(t *testing.T) {
	spec := grid.TwoByTwoPointFive(9)
	mid := CFLTimeStep(spec, 45*math.Pi/180)
	pole := CFLTimeStep(spec, spec.LatCenter(0))
	if !(pole < mid/5) {
		t.Fatalf("polar CFL dt %g not far below mid-latitude %g", pole, mid)
	}
	if mid < 100 || mid > 2000 {
		t.Fatalf("mid-latitude CFL dt %g s implausible for 2.5 deg grid", mid)
	}
}

func TestInitSolidBodyIsBalanced(t *testing.T) {
	// A geostrophically balanced state should evolve only weakly: after a
	// few steps the height field must stay within a fraction of a percent
	// of its initial range.
	dt := 0.5 * CFLTimeStep(testSpec, filter.Strong.CritLat())
	fields, _ := runModel(t, testSpec, 1, 1, 10, dt, true)
	h := fields[2]
	min, max := h[0], h[0]
	for _, v := range h {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	// The geostrophic polar depression for a 20 m/s jet is ~970 m of the
	// 2500 m resting depth, so the balanced range is roughly [1530, 2530];
	// instability would blow far outside it within a few steps.
	if min < 0.55*MeanDepth || max > 1.1*MeanDepth {
		t.Fatalf("height drifted to [%g, %g] after 10 steps", min, max)
	}
}

func TestDecompositionInvariance(t *testing.T) {
	// The core correctness property of the whole parallel AGCM: the
	// answer must not depend on the processor mesh.
	dt := 0.5 * CFLTimeStep(testSpec, filter.Strong.CritLat())
	const steps = 8
	want, _ := runModel(t, testSpec, 1, 1, steps, dt, true)
	for _, mesh := range [][2]int{{1, 3}, {2, 2}, {4, 3}, {6, 2}} {
		py, px := mesh[0], mesh[1]
		t.Run(fmt.Sprintf("%dx%d", py, px), func(t *testing.T) {
			got, _ := runModel(t, testSpec, py, px, steps, dt, true)
			for fi := range want {
				for idx := range want[fi] {
					if d := math.Abs(got[fi][idx] - want[fi][idx]); d > 1e-9 {
						t.Fatalf("field %d index %d differs by %g from 1x1 run", fi, idx, d)
					}
				}
			}
		})
	}
}

func TestMassConservation(t *testing.T) {
	spec := testSpec
	d, _ := grid.NewDecomp(spec, 2, 2)
	dt := 0.5 * CFLTimeStep(spec, filter.Strong.CritLat())
	m := sim.New(4, machine.CrayT3D())
	_, err := m.Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, 2, 2)
		l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
		s := NewState(l)
		InitSolidBody(s, 20, 4)
		dy := New(cart, spec, l, dt, filter.NewFFT(cart, spec, l, true))
		m0 := world.AllreduceInto([]float64{dy.TotalMass(s)}, nil, comm.SumOp)[0]
		for n := 0; n < 20; n++ {
			dy.Step(s)
		}
		m1 := world.AllreduceInto([]float64{dy.TotalMass(s)}, nil, comm.SumOp)[0]
		if rel := math.Abs(m1-m0) / m0; rel > 1e-6 {
			return fmt.Errorf("mass drifted by %g over 20 steps", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFilterStabilizesPolarCFLViolation(t *testing.T) {
	// The reason the filter exists: at a time step set by the CFL limit
	// at the critical latitude (stable in mid-latitudes, violated near
	// the poles), the filtered model must remain bounded while the
	// unfiltered model blows up.
	dt := 0.9 * CFLTimeStep(testSpec, filter.Strong.CritLat())
	const steps = 60

	filtered, _ := runModel(t, testSpec, 1, 1, steps, dt, true)
	maxH := 0.0
	for _, v := range filtered[2] {
		if math.Abs(v) > maxH {
			maxH = math.Abs(v)
		}
	}
	if maxH > 5*MeanDepth || math.IsNaN(maxH) {
		t.Fatalf("filtered run unstable: max|h| = %g", maxH)
	}

	unfiltered, _ := runModel(t, testSpec, 1, 1, steps, dt, false)
	blewUp := false
	for _, f := range unfiltered {
		for _, v := range f {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				blewUp = true
			}
		}
	}
	if !blewUp {
		t.Fatalf("unfiltered run stayed bounded at a polar-CFL-violating dt; filter unnecessary?")
	}
}

func TestPolarDiffusionAlsoStabilizes(t *testing.T) {
	// The implicit-diffusion alternative (Section 5 toolkit) must give
	// the same CFL protection as the spectral filter.
	dt := 0.9 * CFLTimeStep(testSpec, filter.Strong.CritLat())
	d, _ := grid.NewDecomp(testSpec, 2, 2)
	m := sim.New(4, machine.CrayT3D())
	_, err := m.Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, 2, 2)
		l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
		s := NewState(l)
		InitSolidBody(s, 20, 4)
		dy := New(cart, testSpec, l, dt, filter.NewPolarDiffusion(cart, testSpec, l))
		for n := 0; n < 60; n++ {
			dy.Step(s)
		}
		if mh := s.H.MaxAbs(); mh > 5*MeanDepth || math.IsNaN(mh) {
			return fmt.Errorf("polar diffusion failed to stabilize: max|h| = %g", mh)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStepAccountsTime(t *testing.T) {
	dt := 0.5 * CFLTimeStep(testSpec, filter.Strong.CritLat())
	_, res := runModel(t, testSpec, 2, 2, 4, dt, true)
	if res.MaxAccount(sim.DynamicsFD) <= 0 {
		t.Errorf("no finite-difference time accounted")
	}
	if res.MaxAccount(sim.Filter) <= 0 {
		t.Errorf("no filter time accounted")
	}
	if res.MaxAccount(sim.DynamicsComm) <= 0 {
		t.Errorf("no ghost-exchange time accounted")
	}
}

func TestVStaysZeroAtPoles(t *testing.T) {
	dt := 0.5 * CFLTimeStep(testSpec, filter.Strong.CritLat())
	fields, _ := runModel(t, testSpec, 2, 2, 6, dt, true)
	v := fields[1]
	spec := testSpec
	for i := 0; i < spec.Nlon; i++ {
		for k := 0; k < spec.Nlayers; k++ {
			north := v[((spec.Nlat-1)*spec.Nlon+i)*spec.Nlayers+k]
			if north != 0 {
				t.Fatalf("v at north pole face not zero: %g", north)
			}
		}
	}
}

func TestDeterministicDynamics(t *testing.T) {
	dt := 0.5 * CFLTimeStep(testSpec, filter.Strong.CritLat())
	a, ra := runModel(t, testSpec, 2, 3, 5, dt, true)
	b, rb := runModel(t, testSpec, 2, 3, 5, dt, true)
	for fi := range a {
		for idx := range a[fi] {
			if a[fi][idx] != b[fi][idx] {
				t.Fatalf("field %d differs across identical runs", fi)
			}
		}
	}
	for r := range ra.Clocks {
		if ra.Clocks[r] != rb.Clocks[r] {
			t.Fatalf("virtual clocks differ across identical runs")
		}
	}
}

// TestStepFanMatchesInline steps the filtered, vertically diffused model on
// one and two ranks with each rank's row loops inline (GOMAXPROCS 1) and
// split (GOMAXPROCS 3 and 6: three ways on one rank's 25 rows, which do not
// split evenly): the same u, v and h bits, clocks and phase accounts.
func TestStepFanMatchesInline(t *testing.T) {
	spec := grid.Spec{Nlon: 36, Nlat: 25, Nlayers: 3}
	dt := 0.5 * CFLTimeStep(spec, filter.Strong.CritLat())
	run := func(procs, px int) (bits []uint64, res *sim.Result) {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		d, err := grid.NewDecomp(spec, 1, px)
		if err != nil {
			t.Fatal(err)
		}
		res, err = sim.New(px, machine.CrayT3D()).Run(func(p *sim.Proc) error {
			world := comm.World(p)
			cart := comm.NewCart2D(world, 1, px)
			l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
			s := NewState(l)
			InitSolidBody(s, 20, 4)
			dy := New(cart, spec, l, dt, filter.NewFFT(cart, spec, l, true))
			dy.SetVerticalDiffusion(0.2)
			for n := 0; n < 6; n++ {
				dy.Step(s)
			}
			for _, f := range []*grid.Field{s.U, s.V, s.H} {
				if g := grid.Gather(world, cart, f); world.Rank() == 0 {
					for _, v := range g {
						bits = append(bits, math.Float64bits(v))
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return bits, res
	}
	for _, px := range []int{1, 2} {
		wantBits, want := run(1, px)
		for _, procs := range []int{3, 6} {
			bits, got := run(procs, px)
			if !slices.Equal(bits, wantBits) {
				t.Fatalf("%d ranks, GOMAXPROCS %d: fields differ from the inline run", px, procs)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d ranks, GOMAXPROCS %d: result %+v, inline %+v", px, procs, got, want)
			}
		}
	}
}
