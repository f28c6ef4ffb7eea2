package dynamics

import (
	"agcm/internal/filter"
	"agcm/internal/grid"
	"agcm/internal/sim"
)

// Step advances the state one time step: spectral filtering of the
// prognostic fields (as in the UCLA code, before the finite-difference
// procedures), ghost exchange, tendency evaluation, leapfrog update with a
// Robert-Asselin filter, and polar boundary enforcement.
//
// Step accounts its virtual time to four phases on the rank's clock:
// sim.Sync and sim.Filter (only with a filter), sim.DynamicsComm and
// sim.DynamicsFD.  It charges the calibrated finite-difference flop count
// itself and lets the comm layer charge message costs.
func (d *Dynamics) Step(s *State) {
	p := d.cart.World.Proc()

	// Spectral filtering of the fields that feed the finite differences.
	if d.filter != nil {
		if d.vars == nil {
			d.vars = []filter.Variable{
				{Name: "u", Kind: filter.Strong, Field: s.U},
				{Name: "v", Kind: filter.Strong, Field: s.V},
				{Name: "h", Kind: filter.Strong, Field: s.H},
			}
		}
		// Synchronize before the filter so that skew left over from the
		// previous step's physics is accounted as synchronization wait,
		// not as filtering cost.
		p.Account(sim.Sync, func() { d.cart.World.Barrier() })
		p.Account(sim.Filter, func() { d.filter.Apply(d.vars) })
	}

	p.Account(sim.DynamicsComm, func() {
		// T and Q ride along: the full model advects its tracers, so
		// their ghost points are part of the per-step exchange volume.
		d.ex.Exchange(s.U, s.V, s.H, s.T, s.Q)
		d.applyPolarBC(s)
	})

	p.Account(sim.DynamicsFD, func() { d.horizontalSmoothing(s) })

	p.Account(sim.DynamicsComm, func() {
		// The smoothing moved the interior; refresh the ghost points it
		// invalidated so the tendency stencils see one consistent state
		// on every decomposition.
		d.ex.Exchange(s.U, s.V, s.H)
		d.applyPolarBC(s)
	})

	p.Account(sim.DynamicsFD, func() {
		d.computeTendencies(s)
		d.advance(s)
		d.verticalDiffusion(s)
		// Charge the calibrated cost of the full primitive-equation
		// finite-difference suite.
		pts := float64(d.local.Points())
		p.ComputeMem(FlopsPerPoint*pts, BytesPerPoint*pts)
	})
	s.Steps++
}

// DiffusionKappa is the dimensionless strength of the weak horizontal
// del-2 smoothing applied each step to control the nonlinear aliasing
// instability of centred advection (the production model's Arakawa schemes
// conserve energy by construction; this compact core damps instead, as
// simpler GCM cores conventionally do).  The two-grid-interval wave loses
// about 4*kappa per step — far too little to substitute for the polar
// filter, whose required damping near the poles exceeds 95% per step.
const DiffusionKappa = 0.02

// horizontalSmoothing applies one forward-Euler step of scale-selective
// horizontal diffusion to the prognostic fields, using the just-exchanged
// halos.  The meridional term is in flux form with cos(lat) face weights,
// so the height field's mass integral is conserved exactly (pole faces
// carry zero weight).  Every row's increment reads its neighbour rows' old
// values, so all increments are computed before any is applied.
func (d *Dynamics) horizontalSmoothing(s *State) {
	p := d.cart.World.Proc()
	d.cur = s
	p.Fan((*smoothLoop)(d), d.local.Nlat())
	p.Fan((*smoothApplyLoop)(d), d.local.Nlat())
}

// smoothed returns u, v and h of s, each with the tendency field that
// holds its smoothing increment.
func (d *Dynamics) smoothed(s *State) (fields, incs [3]*grid.Field) {
	return [3]*grid.Field{s.U, s.V, s.H}, [3]*grid.Field{d.tend.du, d.tend.dv, d.tend.dh}
}

// Run computes the smoothing increments of rows [lo, hi).
func (l *smoothLoop) Run(_, lo, hi int) {
	d := (*Dynamics)(l)
	nl := d.local.Nlayers()
	dlam := d.spec.DLon()
	dphi := d.spec.DLat()
	fields, incs := d.smoothed(d.cur)
	for fi, f := range fields {
		scratch := incs[fi]
		isV := fi == 1
		for j := lo; j < hi; j++ {
			cosC := d.cosC[j+1]
			cosN := d.cosN[j+1]
			cosS := d.cosN[j]
			if isV && d.local.GlobalLat(j) == d.spec.Nlat-1 {
				// The pole face: v stays exactly zero.
				clear(scratch.RowData(j))
				continue
			}
			// The meridional diffusivity lives on the faces —
			// (dx_face/dy)^2, shared by the two adjacent rows — so
			// the flux form telescopes and mass is conserved
			// exactly; it vanishes toward the poles with dx, while
			// the zonal two-grid damping is kappa everywhere.
			ratioN := (cosN * dlam / dphi) * (cosN * dlam / dphi)
			ratioS := (cosS * dlam / dphi) * (cosS * dlam / dphi)
			// Flat row stencil (see rowViews): point m of the row's
			// centre qC has its east, west, north and south neighbours
			// at m of qE, qW, qN and qS.
			qC, qE, qW := rowViews(f, j, nl)
			qN, _, _ := rowViews(f, j+1, nl)
			qS, _, _ := rowViews(f, j-1, nl)
			sc := scratch.RowData(j)[:len(qC)]
			qE, qW, qN, qS = qE[:len(qC)], qW[:len(qC)], qN[:len(qC)], qS[:len(qC)]
			for m, q := range qC {
				zon := qE[m] - 2*q + qW[m]
				mer := (ratioN*cosN*(qN[m]-q) -
					ratioS*cosS*(q-qS[m])) / cosC
				sc[m] = DiffusionKappa * (zon + mer)
			}
		}
	}
}

// Run adds the smoothing increments of rows [lo, hi) to the fields.
func (l *smoothApplyLoop) Run(_, lo, hi int) {
	d := (*Dynamics)(l)
	nl := d.local.Nlayers()
	fields, incs := d.smoothed(d.cur)
	for fi, f := range fields {
		for j := lo; j < hi; j++ {
			fC, _, _ := rowViews(f, j, nl)
			sc := incs[fi].RowData(j)[:len(fC)]
			for m := range fC {
				fC[m] += sc[m]
			}
		}
	}
}

// rowViews returns three views of latitude row j of a halo-1 state field
// of nl layers, each nlon·nl floats long: the row's interior (centre), and
// the same span shifted one column east and one column west.  The halo-0
// tendency rows line up with the centre: their point m is RowData(j)[m].
// So a stencil runs as one flat loop over m ∈ [0, nlon·nl), point m of the
// centre having its east and west neighbours at m of the shifted views.
func rowViews(f *grid.Field, j, nl int) (centre, east, west []float64) {
	row := f.RowData(j)
	n := len(row) - 2*nl
	return row[nl : nl+n], row[2*nl : 2*nl+n], row[:n]
}

// applyPolarBC fills the pole-side halo rows, i = -1 .. Nlon of the state's
// halo-1 padded rows: zero-gradient for u and h, and zero meridional
// velocity at (and beyond) the poles.
func (d *Dynamics) applyPolarBC(s *State) {
	l := d.local
	if l.Lat0 == 0 { // my subdomain touches the south pole
		copy(s.U.RowData(-1), s.U.RowData(0))
		copy(s.H.RowData(-1), s.H.RowData(0))
		clear(s.V.RowData(-1))
	}
	if l.Lat1 == d.spec.Nlat { // touches the north pole
		jn := l.Nlat()
		copy(s.U.RowData(jn), s.U.RowData(jn-1))
		copy(s.H.RowData(jn), s.H.RowData(jn-1))
		clear(s.V.RowData(jn))
		// The northernmost interior v row is the pole face.
		clear(s.V.RowData(jn - 1))
	}
}

// computeTendencies evaluates the C-grid shallow-water tendencies du, dv,
// dh on the interior using 5-point stencils over the exchanged halos.
func (d *Dynamics) computeTendencies(s *State) {
	d.cur = s
	d.cart.World.Proc().Fan((*tendencyLoop)(d), d.local.Nlat())
}

// Run evaluates the tendencies of rows [lo, hi).
func (tl *tendencyLoop) Run(_, lo, hi int) {
	d := (*Dynamics)(tl)
	s := d.cur
	l := d.local
	spec := d.spec
	a := grid.EarthRadius
	g := grid.Gravity
	dlam := spec.DLon()
	dphi := spec.DLat()
	nl := l.Nlayers()

	for j := lo; j < hi; j++ {
		cosC := d.cosC[j+1]
		cosN := d.cosN[j+1]
		cosS := d.cosN[j] // southern edge of row j = northern edge of row j-1
		fC := d.fC[j+1]
		fN := d.fN[j+1]
		rdx := 1 / (a * cosC * dlam) // 1/dx at centres
		rdy := 1 / (a * dphi)
		northPole := l.GlobalLat(j) == spec.Nlat-1
		rdxN := 1 / (a*cosN*dlam + 1e-30)
		// Flat row stencil (see rowViews): point m of each centre view
		// has its neighbours at m of the east (E) and west (W) views and
		// of the rows north (N) and south (S); the tendency rows line up
		// with the centres.
		uC, uE, uW := rowViews(s.U, j, nl)
		vC, vE, vW := rowViews(s.V, j, nl)
		hC, hE, hW := rowViews(s.H, j, nl)
		uN, _, uNW := rowViews(s.U, j+1, nl)
		vN, _, _ := rowViews(s.V, j+1, nl)
		hN, _, _ := rowViews(s.H, j+1, nl)
		uS, _, _ := rowViews(s.U, j-1, nl)
		vS, vSE, _ := rowViews(s.V, j-1, nl)
		hS, _, _ := rowViews(s.H, j-1, nl)
		n := len(uC)
		// Equal lengths, stated, let the compiler drop the bounds checks.
		uE, uW, uN, uS, uNW = uE[:n], uW[:n], uN[:n], uS[:n], uNW[:n]
		vC, vE, vW, vN, vS, vSE = vC[:n], vE[:n], vW[:n], vN[:n], vS[:n], vSE[:n]
		hC, hE, hW, hN, hS = hC[:n], hE[:n], hW[:n], hN[:n], hS[:n]
		duR, dvR, dhR := d.tend.du.RowData(j)[:n], d.tend.dv.RowData(j)[:n], d.tend.dh.RowData(j)[:n]
		for m, u := range uC {
			v := vC[m]
			h := hC[m]

			// --- u momentum at the east face of (j,i) ---
			vbar := 0.25 * (vC[m] + vE[m] + vS[m] + vSE[m])
			dudx := (uE[m] - uW[m]) * 0.5 * rdx
			dudy := (uN[m] - uS[m]) * 0.5 * rdy
			dhdx := (hE[m] - h) * rdx
			duR[m] = fC*vbar - g*dhdx - u*dudx - vbar*dudy

			// --- v momentum at the north face of (j,i) ---
			ubar := 0.25 * (uC[m] + uW[m] + uN[m] + uNW[m])
			dvdx := (vE[m] - vW[m]) * 0.5 * rdxN
			dvdy := (vN[m] - vS[m]) * 0.5 * rdy
			dhdy := (hN[m] - h) * rdy
			dvR[m] = -fN*ubar - g*dhdy - ubar*dvdx - v*dvdy

			// --- continuity at the centre of (j,i), flux form ---
			// Zonal mass fluxes through the east and west faces.
			fe := 0.5 * (h + hE[m]) * u
			fw := 0.5 * (hW[m] + h) * uW[m]
			// Meridional fluxes through the north and south faces,
			// weighted by cos(lat) at the face.
			fn := 0.5 * (h + hN[m]) * cosN * v
			fs := 0.5 * (hS[m] + h) * cosS * vS[m]
			dhR[m] = -(fe-fw)*rdx - (fn-fs)*rdy/cosC
		}
		if northPole {
			clear(dvR) // pole face: v stays 0
		}
	}
}

// advance applies the leapfrog update with a Robert-Asselin filter, or
// forward Euler on the first step.
func (d *Dynamics) advance(s *State) {
	d.cur = s
	d.cart.World.Proc().Fan((*advanceLoop)(d), d.local.Nlat())
}

// Run advances rows [lo, hi) of u, v and h.
func (l *advanceLoop) Run(_, lo, hi int) {
	d := (*Dynamics)(l)
	s := d.cur
	nl := d.local.Nlayers()
	dt := d.dt
	first := s.Steps == 0

	update := func(cur, prev, tend *grid.Field) {
		for j := lo; j < hi; j++ {
			cR, _, _ := rowViews(cur, j, nl)
			pR, _, _ := rowViews(prev, j, nl)
			pR, tR := pR[:len(cR)], tend.RowData(j)[:len(cR)]
			// Forward Euler on the first step, leapfrog after; then the
			// Robert-Asselin filter on the centre level.
			if first {
				for m, c := range cR {
					next := c + dt*tR[m]
					pR[m] = c + RobertAlpha*(pR[m]-2*c+next)
					cR[m] = next
				}
				continue
			}
			for m, c := range cR {
				next := pR[m] + 2*dt*tR[m]
				pR[m] = c + RobertAlpha*(pR[m]-2*c+next)
				cR[m] = next
			}
		}
	}
	update(s.U, s.PrevU, d.tend.du)
	update(s.V, s.PrevV, d.tend.dv)
	update(s.H, s.PrevH, d.tend.dh)
}

// TotalMass returns this rank's contribution to the global mass integral
// sum(h * cos(lat)) over the interior — conserved by the flux-form
// continuity equation up to round-off.
func (d *Dynamics) TotalMass(s *State) float64 {
	l := d.local
	sum := 0.0
	for j := 0; j < l.Nlat(); j++ {
		w := d.cosC[j+1]
		for i := 0; i < l.Nlon(); i++ {
			for k := 0; k < l.Nlayers(); k++ {
				sum += s.H.At(j, i, k) * w
			}
		}
	}
	return sum
}
