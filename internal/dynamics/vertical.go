package dynamics

import (
	"agcm/internal/solver"
)

// SetVerticalDiffusion enables implicit vertical mixing of momentum with
// the dimensionless per-step diffusion number kv (= nu*dt/dz^2 in layer
// units).  Each column solves (I - kv*Dzz) u_new = u with no-flux
// boundaries via the Thomas algorithm — the "implicit time-differencing"
// use case for the Section 5 solver toolkit.  kv = 0 disables the solve.
// The matrix is the same for every column and step, so it is eliminated
// here once and each step only solves.
func (d *Dynamics) SetVerticalDiffusion(kv float64) {
	if kv < 0 {
		panic("dynamics: negative vertical diffusion")
	}
	d.mix = nil
	nl := d.local.Nlayers()
	if kv == 0 || nl < 2 {
		return
	}
	abc := make([]float64, 3*nl)
	a, b, c := abc[:nl], abc[nl:2*nl], abc[2*nl:]
	for k := 0; k < nl; k++ {
		a[k], c[k] = -kv, -kv
		b[k] = 1 + 2*kv
	}
	// No-flux boundaries: the missing neighbour term folds back into the
	// diagonal.
	b[0] = 1 + kv
	b[nl-1] = 1 + kv
	mix, err := solver.NewThomas(a, b, c)
	if err != nil {
		panic("dynamics: vertical diffusion matrix: " + err.Error())
	}
	d.mix = mix
}

// verticalDiffusion applies one backward-Euler vertical mixing step to the
// momentum fields.
func (d *Dynamics) verticalDiffusion(s *State) {
	if d.mix == nil {
		return
	}
	p := d.cart.World.Proc()
	d.cur = s
	p.Fan((*mixLoop)(d), d.local.Nlat())
	// Two Thomas solves (8 flops/row) per column.
	p.Compute(float64(d.local.Nlat()*d.local.Nlon()) * 2 * 8 * float64(d.local.Nlayers()))
}

// Run solves the u and v columns of rows [lo, hi) in place.
func (l *mixLoop) Run(_, lo, hi int) {
	d := (*Dynamics)(l)
	s := d.cur
	for j := lo; j < hi; j++ {
		for i := 0; i < d.local.Nlon(); i++ {
			d.mix.Solve(s.U.Column(j, i))
			d.mix.Solve(s.V.Column(j, i))
		}
	}
}
