package filter

import (
	"math"

	"agcm/internal/comm"
	"agcm/internal/grid"
	"agcm/internal/solver"
)

// PolarDiffusion is an alternative polar treatment built from the Section 5
// template components: instead of Fourier filtering, each polar latitude
// circle is smoothed by one backward-Euler step of zonal diffusion,
//
//	(I - K(lat) * Dxx) x_new = x_old,
//
// solved with the distributed periodic tridiagonal solver across the mesh
// row.  The diffusion strength K(lat) is chosen so that the damping of
// every zonal wavenumber is at least as strong as the spectral filter's
// S(s, lat) wherever S < 1, which preserves the CFL-stabilizing property;
// unlike the spectral filter it also over-damps intermediate wavenumbers —
// the accuracy price of the implicit route.
//
// It exists as a counterfactual for the paper's design choice: same
// stabilization, different numerical machinery and communication pattern
// (batched substructured solves instead of a data transpose).
type PolarDiffusion struct {
	cart  *comm.Cart2D
	spec  grid.Spec
	local grid.Local
}

// NewPolarDiffusion builds the implicit-diffusion polar treatment.
func NewPolarDiffusion(cart *comm.Cart2D, spec grid.Spec, local grid.Local) *PolarDiffusion {
	return &PolarDiffusion{cart: cart, spec: spec, local: local}
}

// Strength returns the dimensionless diffusion number K for one latitude
// and filter kind: with K >= 1/(4 r^2), the implicit damping
// 1/(1 + 4K sin^2(theta)) stays at or below the spectral filter's
// (r/sin(theta))^2 wherever that is below one, so the diffusion route
// inherits the spectral filter's CFL protection; a 1.2 safety factor
// absorbs the leapfrog's tolerance.  r = cos(lat)/cos(critLat).
func Strength(lat, critLat float64) float64 {
	r := math.Abs(math.Cos(lat)) / math.Cos(critLat)
	if r >= 1 {
		return 0
	}
	return 1.2 / (4 * r * r)
}

// Apply implements Parallel: every filtered line becomes one periodic
// tridiagonal system; all lines are solved in one batched distributed call
// per Apply, so the collective cost is paid once.
func (f *PolarDiffusion) Apply(vars []Variable) {
	lines := buildLines(f.spec, kindsOf(vars))
	if len(lines) == 0 {
		return
	}
	me := f.cart.MyRow
	w := f.local.Nlon()

	// My lines: the ones whose latitude row this processor row owns.
	var mine []line
	for _, ln := range lines {
		if f.local.Decomp.RowOfLat(ln.j) == me {
			mine = append(mine, ln)
		}
	}
	// Processor rows with no polar rows still participate in nothing —
	// the same load imbalance as the unbalanced FFT filter; the batch
	// solver is collective only over the mesh row, which is uniform.
	if len(mine) == 0 {
		return
	}

	L := len(mine)
	as := make([][]float64, L)
	bs := make([][]float64, L)
	cs := make([][]float64, L)
	ds := make([][]float64, L)
	xs := make([][]float64, L)
	for li, ln := range mine {
		k := Strength(f.spec.LatCenter(ln.j), vars[ln.v].Kind.CritLat())
		row := vars[ln.v].Field.RowSlice(ln.j-f.local.Lat0, ln.k, nil)
		av := make([]float64, w)
		bv := make([]float64, w)
		cv := make([]float64, w)
		for i := 0; i < w; i++ {
			av[i] = -k
			bv[i] = 1 + 2*k
			cv[i] = -k
		}
		as[li], bs[li], cs[li] = av, bv, cv
		ds[li] = row
		xs[li] = make([]float64, w)
	}
	if err := solver.DistributedPeriodicTridiagBatch(f.cart.Row, as, bs, cs, ds, xs); err != nil {
		panic("filter: polar diffusion solve failed: " + err.Error())
	}
	for li, ln := range mine {
		vars[ln.v].Field.SetRowSlice(ln.j-f.local.Lat0, ln.k, xs[li])
	}
}
