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
// carry zero weight).
func (d *Dynamics) horizontalSmoothing(s *State) {
	l := d.local
	nlat, nlon, nl := l.Nlat(), l.Nlon(), l.Nlayers()
	dlam := d.spec.DLon()
	dphi := d.spec.DLat()
	for fi, f := range []*grid.Field{s.U, s.V, s.H} {
		scratch := []*grid.Field{d.tend.du, d.tend.dv, d.tend.dh}[fi]
		isV := fi == 1
		for j := 0; j < nlat; j++ {
			cosC := d.cosC[j+1]
			cosN := d.cosN[j+1]
			cosS := d.cosN[j]
			if isV && d.local.GlobalLat(j) == d.spec.Nlat-1 {
				// The pole face: v stays exactly zero.
				for i := 0; i < nlon; i++ {
					for k := 0; k < nl; k++ {
						scratch.Set(j, i, k, 0)
					}
				}
				continue
			}
			// The meridional diffusivity lives on the faces —
			// (dx_face/dy)^2, shared by the two adjacent rows — so
			// the flux form telescopes and mass is conserved
			// exactly; it vanishes toward the poles with dx, while
			// the zonal two-grid damping is kappa everywhere.
			ratioN := (cosN * dlam / dphi) * (cosN * dlam / dphi)
			ratioS := (cosS * dlam / dphi) * (cosS * dlam / dphi)
			// Row-sliced stencil: fC/fN/fS are the halo-padded state rows
			// (column i at offset (i+1)*nl), sc the halo-free scratch row.
			fRow, fN_, fS_ := f.RowData(j), f.RowData(j+1), f.RowData(j-1)
			sc := scratch.RowData(j)
			for i := 0; i < nlon; i++ {
				c := (i + 1) * nl
				t := i * nl
				for k := 0; k < nl; k++ {
					q := fRow[c+k]
					zon := fRow[c+nl+k] - 2*q + fRow[c-nl+k]
					mer := (ratioN*cosN*(fN_[c+k]-q) -
						ratioS*cosS*(q-fS_[c+k])) / cosC
					sc[t+k] = DiffusionKappa * (zon + mer)
				}
			}
		}
		for j := 0; j < nlat; j++ {
			fRow := f.RowData(j)
			sc := scratch.RowData(j)
			for i := 0; i < nlon; i++ {
				c := (i + 1) * nl
				t := i * nl
				for k := 0; k < nl; k++ {
					fRow[c+k] += sc[t+k]
				}
			}
		}
	}
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
	l := d.local
	spec := d.spec
	a := grid.EarthRadius
	g := grid.Gravity
	dlam := spec.DLon()
	dphi := spec.DLat()
	nlat, nlon, nl := l.Nlat(), l.Nlon(), l.Nlayers()

	for j := 0; j < nlat; j++ {
		cosC := d.cosC[j+1]
		cosN := d.cosN[j+1]
		cosS := d.cosN[j] // southern edge of row j = northern edge of row j-1
		fC := d.fC[j+1]
		fN := d.fN[j+1]
		rdx := 1 / (a * cosC * dlam) // 1/dx at centres
		rdy := 1 / (a * dphi)
		northPole := l.GlobalLat(j) == spec.Nlat-1
		rdxN := 1 / (a*cosN*dlam + 1e-30)
		// Row-sliced stencil access: column i of the halo-1 state rows
		// starts at (i+1)*nl; the halo-free tendency rows at i*nl.
		uC, uN, uS := s.U.RowData(j), s.U.RowData(j+1), s.U.RowData(j-1)
		vC, vN, vS := s.V.RowData(j), s.V.RowData(j+1), s.V.RowData(j-1)
		hC, hN, hS := s.H.RowData(j), s.H.RowData(j+1), s.H.RowData(j-1)
		duR, dvR, dhR := d.tend.du.RowData(j), d.tend.dv.RowData(j), d.tend.dh.RowData(j)
		for i := 0; i < nlon; i++ {
			c := (i + 1) * nl
			t := i * nl
			for k := 0; k < nl; k++ {
				e := c + nl + k // east neighbour (i+1)
				w := c - nl + k // west neighbour (i-1)
				u := uC[c+k]
				v := vC[c+k]
				h := hC[c+k]

				// --- u momentum at the east face of (j,i) ---
				vbar := 0.25 * (vC[c+k] + vC[e] + vS[c+k] + vS[e])
				dudx := (uC[e] - uC[w]) * 0.5 * rdx
				dudy := (uN[c+k] - uS[c+k]) * 0.5 * rdy
				dhdx := (hC[e] - h) * rdx
				duR[t+k] = fC*vbar - g*dhdx - u*dudx - vbar*dudy

				// --- v momentum at the north face of (j,i) ---
				if northPole {
					dvR[t+k] = 0 // pole face: v stays 0
				} else {
					ubar := 0.25 * (uC[c+k] + uC[w] + uN[c+k] + uN[w])
					dvdx := (vC[e] - vC[w]) * 0.5 * rdxN
					dvdy := (vN[c+k] - vS[c+k]) * 0.5 * rdy
					dhdy := (hN[c+k] - h) * rdy
					dvR[t+k] = -fN*ubar - g*dhdy - ubar*dvdx - v*dvdy
				}

				// --- continuity at the centre of (j,i), flux form ---
				// Zonal mass fluxes through the east and west faces.
				fe := 0.5 * (h + hC[e]) * u
				fw := 0.5 * (hC[w] + h) * uC[w]
				// Meridional fluxes through the north and south faces,
				// weighted by cos(lat) at the face.
				fn := 0.5 * (h + hN[c+k]) * cosN * v
				fs := 0.5 * (hS[c+k] + h) * cosS * vS[c+k]
				dhR[t+k] = -(fe-fw)*rdx - (fn-fs)*rdy/cosC
			}
		}
	}
}

// advance applies the leapfrog update with a Robert-Asselin filter, or
// forward Euler on the first step.
func (d *Dynamics) advance(s *State) {
	l := d.local
	nlat, nlon, nl := l.Nlat(), l.Nlon(), l.Nlayers()
	dt := d.dt
	first := s.Steps == 0

	update := func(cur, prev, tend *grid.Field) {
		for j := 0; j < nlat; j++ {
			cR, pR := cur.RowData(j), prev.RowData(j)
			tR := tend.RowData(j)
			for i := 0; i < nlon; i++ {
				co := (i + 1) * nl
				to := i * nl
				for k := 0; k < nl; k++ {
					c := cR[co+k]
					var next float64
					if first {
						next = c + dt*tR[to+k]
					} else {
						next = pR[co+k] + 2*dt*tR[to+k]
					}
					// Robert-Asselin filter on the centre level.
					filtered := c + RobertAlpha*(pR[co+k]-2*c+next)
					pR[co+k] = filtered
					cR[co+k] = next
				}
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
