package dynamics

import (
	"math"
	"testing"

	"agcm/internal/grid"
)

// initSolidBodyReference is InitSolidBody as first written: the formula
// evaluated point by point, every trigonometric and exponential factor
// recomputed per point and layer.  The hoisted InitSolidBody must reproduce
// it bit for bit.
func initSolidBodyReference(s *State, u0 float64, w int) {
	l := s.U.Local()
	spec := l.Decomp.Spec
	a := grid.EarthRadius
	for j := 0; j < l.Nlat(); j++ {
		gj := l.GlobalLat(j)
		lat := spec.LatCenter(gj)
		for i := 0; i < l.Nlon(); i++ {
			gi := l.GlobalLon(i)
			lon := spec.LonCenter(gi)
			hb := MeanDepth - (a*grid.Omega*u0+0.5*u0*u0)*
				math.Sin(lat)*math.Sin(lat)/grid.Gravity
			pert := 1 + 0.01*math.Cos(float64(w)*lon)*math.Cos(lat)*math.Cos(lat)
			for k := 0; k < l.Nlayers(); k++ {
				lf := 1 + 0.02*float64(k)
				s.U.Set(j, i, k, u0*math.Cos(lat)*lf)
				s.V.Set(j, i, k, 0)
				s.H.Set(j, i, k, hb*pert)
				s.T.Set(j, i, k, 288-60*math.Sin(lat)*math.Sin(lat)-6*float64(k))
				s.Q.Set(j, i, k, 0.015*math.Cos(lat)*math.Exp(-0.4*float64(k)))
			}
		}
	}
	s.PrevU.CopyFrom(s.U)
	s.PrevV.CopyFrom(s.V)
	s.PrevH.CopyFrom(s.H)
}

// stateBitsEqual reports the first field and padded index at which a and b
// differ in any bit, halos included.
func stateBitsEqual(a, b *State) (string, int, bool) {
	fa, fb := a.stateVariables(), b.stateVariables()
	for v := range fa {
		l := fa[v].f.Local()
		for j := -1; j <= l.Nlat(); j++ {
			ra, rb := fa[v].f.RowData(j), fb[v].f.RowData(j)
			for x := range ra {
				if math.Float64bits(ra[x]) != math.Float64bits(rb[x]) {
					return fa[v].name, x, false
				}
			}
		}
	}
	return "", 0, a.Steps == b.Steps
}

// TestInitSolidBodyMatchesReference compares every bit of every rank's
// initial state with the point-by-point formula on 1x1, 2x4 and 8x30
// decompositions of the paper's grid (the 8x30 subdomains are 5 columns
// wide, the 1x1 one 144, past the stack table) at three winds.
func TestInitSolidBodyMatchesReference(t *testing.T) {
	spec := grid.TwoByTwoPointFive(9)
	for _, mesh := range [][2]int{{1, 1}, {2, 4}, {8, 30}} {
		d, err := grid.NewDecomp(spec, mesh[0], mesh[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, u0 := range []float64{20, 21.75, 35} {
			for row := 0; row < mesh[0]; row++ {
				for col := 0; col < mesh[1]; col++ {
					l := grid.NewLocal(d, row, col)
					got, want := NewState(l), NewState(l)
					InitSolidBody(got, u0, 4)
					initSolidBodyReference(want, u0, 4)
					if name, x, ok := stateBitsEqual(got, want); !ok {
						t.Fatalf("%dx%d rank (%d,%d) u0 %g: %s differs at padded index %d",
							mesh[0], mesh[1], row, col, u0, name, x)
					}
				}
			}
		}
	}
}

// TestStateResetMatchesNewState: a stepped state, Reset and initialised
// again, is bit for bit a new state initialised once — halos included, which
// the steps filled from the neighbours and InitSolidBody never writes.
func TestStateResetMatchesNewState(t *testing.T) {
	d, err := grid.NewDecomp(grid.Spec{Nlon: 36, Nlat: 24, Nlayers: 3}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	l := grid.NewLocal(d, 0, 0)
	used, fresh := NewState(l), NewState(l)
	InitSolidBody(used, 30, 4)
	for _, f := range used.stateVariables() {
		f.f.Fill(-7)
	}
	used.Steps = 12
	used.Reset()
	InitSolidBody(used, 20, 4)
	InitSolidBody(fresh, 20, 4)
	if name, x, ok := stateBitsEqual(used, fresh); !ok {
		t.Fatalf("reset state differs from a new one: %q at padded index %d (steps %d vs %d)",
			name, x, used.Steps, fresh.Steps)
	}
}
