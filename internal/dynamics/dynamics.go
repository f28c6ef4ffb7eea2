// Package dynamics implements the AGCM/Dynamics finite-difference component:
// a multi-layer rotating shallow-water dynamical core on the Arakawa C-grid
// in spherical geometry, integrated with a leapfrog scheme and a
// Robert-Asselin time filter.
//
// This core plays the role of the UCLA model's primitive-equation solver: it
// has the same computational structure (C-grid staggering, nearest-neighbour
// ghost exchanges, a uniform time step whose polar CFL violation the
// spectral filter must absorb) while remaining compact.  The per-point
// operation count of the full primitive-equation suite is represented by a
// calibrated flop charge on the virtual clock; the arithmetic actually
// executed is the shallow-water subset, which is what the correctness tests
// verify (decomposition invariance, mass conservation, filter-enabled
// stability).
package dynamics

import (
	"math"

	"agcm/internal/comm"
	"agcm/internal/filter"
	"agcm/internal/grid"
	"agcm/internal/solver"
)

// FlopsPerPoint is the calibrated per-gridpoint-per-step operation count of
// the full Dynamics finite-difference suite (momentum, continuity,
// thermodynamics, vertical terms), chosen so that the simulated single-node
// run of the 2°x2.5°x9 model lands near the paper's Table 4/6 timings.
const FlopsPerPoint = 590

// BytesPerPoint is the memory traffic per grid point per step charged to
// the cost model (the fields touched by the finite-difference sweeps).
const BytesPerPoint = 10 * 8

// RobertAlpha is the Robert-Asselin time-filter coefficient.
const RobertAlpha = 0.06

// State holds one rank's prognostic fields: velocity components on the
// C-grid faces, the layer thickness (geopotential) at centres, and the
// physics tracers (temperature and moisture) at centres.
type State struct {
	U, V, H *grid.Field
	T, Q    *grid.Field
	// Leapfrog previous-step copies of the dynamical fields.
	PrevU, PrevV, PrevH *grid.Field
	// Steps counts completed time steps (step 0 uses forward Euler).
	Steps int
}

// NewState allocates a zeroed state on subdomain l with halo width 1.
func NewState(l grid.Local) *State {
	return &State{
		U: grid.NewField(l, 1), V: grid.NewField(l, 1), H: grid.NewField(l, 1),
		T: grid.NewField(l, 1), Q: grid.NewField(l, 1),
		PrevU: grid.NewField(l, 1), PrevV: grid.NewField(l, 1), PrevH: grid.NewField(l, 1),
	}
}

// MeanDepth is the resting layer thickness in metres — the equivalent
// depth of the gravest mode this core carries; the gravity-wave speed
// sqrt(g*MeanDepth) ~ 157 m/s controls the CFL limit.
const MeanDepth = 2500

// Reset zeroes every field, halos included, and the step counter: the state
// NewState returns, in the same storage.
func (s *State) Reset() {
	for _, f := range []*grid.Field{s.U, s.V, s.H, s.T, s.Q, s.PrevU, s.PrevV, s.PrevH} {
		f.Fill(0)
	}
	s.Steps = 0
}

// InitSolidBody initializes a geostrophically balanced solid-body zonal
// flow of peak speed u0 (m/s) with a small wavenumber-w perturbation, plus
// smooth temperature and moisture distributions.  The same formula is used
// on every decomposition, so differently decomposed runs start from the
// identical global state.
//
// Every factor is computed once where it varies — latitude terms per row,
// the perturbation's zonal wave per column, the layer profiles per layer —
// and each point's value is the same product, in the same order, as the
// formula evaluated point by point.
func InitSolidBody(s *State, u0 float64, w int) {
	l := s.U.Local()
	spec := l.Decomp.Spec
	a := grid.EarthRadius
	nlon, nl := l.Nlon(), l.Nlayers()
	// One table of nlon+2*nl factors, on the stack for the usual subdomain.
	var stack [64]float64
	tab := stack[:]
	if need := nlon + 2*nl; need > len(stack) {
		tab = make([]float64, need)
	}
	wave, lf, decay := tab[:nlon], tab[nlon:nlon+nl], tab[nlon+nl:nlon+2*nl]
	for i := range wave {
		wave[i] = math.Cos(float64(w) * spec.LonCenter(l.GlobalLon(i)))
	}
	for k := range lf {
		lf[k] = 1 + 0.02*float64(k)
		decay[k] = math.Exp(-0.4 * float64(k))
	}
	for j := 0; j < l.Nlat(); j++ {
		lat := spec.LatCenter(l.GlobalLat(j))
		sin, cos := math.Sin(lat), math.Cos(lat)
		// Geostrophic thickness for u = u0*cos(lat):
		// g*dh/dphi = -(f*u + u^2*tan(lat)/a)*a  integrates to
		// h = H - (a*Omega*u0 + u0^2/2) * sin^2(lat)/g.
		hb := MeanDepth - (a*grid.Omega*u0+0.5*u0*u0)*sin*sin/grid.Gravity
		uc, t0, qc := u0*cos, 288-60*sin*sin, 0.015*cos
		for i := 0; i < nlon; i++ {
			h := hb * (1 + 0.01*wave[i]*cos*cos)
			for k := 0; k < nl; k++ {
				s.U.Set(j, i, k, uc*lf[k])
				s.V.Set(j, i, k, 0)
				s.H.Set(j, i, k, h)
				s.T.Set(j, i, k, t0-6*float64(k))
				s.Q.Set(j, i, k, qc*decay[k])
			}
		}
	}
	s.PrevU.CopyFrom(s.U)
	s.PrevV.CopyFrom(s.V)
	s.PrevH.CopyFrom(s.H)
}

// Dynamics advances a State on one rank of the processor mesh.
type Dynamics struct {
	cart  *comm.Cart2D
	spec  grid.Spec
	local grid.Local
	dt    float64

	// Per-local-row metric terms, indexed by local j with one halo row
	// on each side (offset by 1).
	cosC   []float64 // cos(lat) at centres
	cosN   []float64 // cos(lat) at the northern edge of row j
	fC     []float64 // Coriolis at centres
	fN     []float64 // Coriolis at northern edges
	tend   tendencies
	filter filter.Parallel
	vars   []filter.Variable
	mix    *solver.Thomas // implicit vertical diffusion; nil = off

	// cur is the state the running row loop works on (see smoothLoop).
	cur *State

	// ex owns the persistent halo-exchange staging buffers, keeping the
	// twice-per-step ghost updates allocation-free.
	ex *grid.Exchanger
}

type tendencies struct {
	du, dv, dh *grid.Field
}

// The step's row loops, each a sim.Loop over the Dynamics that the rank
// splits over its share of the host's cores (sim.Fan).  Every row's
// arithmetic is the serial loop's, and a loop writes only its own rows.
type (
	smoothLoop      Dynamics // horizontal smoothing increments
	smoothApplyLoop Dynamics // adding them to the fields
	tendencyLoop    Dynamics // tendencies
	advanceLoop     Dynamics // leapfrog update
	mixLoop         Dynamics // implicit vertical diffusion
)

// New builds the Dynamics component for one rank.  flt may be nil to run
// unfiltered (which is numerically unstable at polar-CFL-violating time
// steps — exactly the configuration the paper's filter exists to prevent).
func New(cart *comm.Cart2D, spec grid.Spec, local grid.Local, dt float64, flt filter.Parallel) *Dynamics {
	d := &Dynamics{
		cart: cart, spec: spec, local: local, dt: dt, filter: flt,
		ex: grid.NewExchanger(cart),
	}
	n := local.Nlat()
	d.cosC = make([]float64, n+2)
	d.cosN = make([]float64, n+2)
	d.fC = make([]float64, n+2)
	d.fN = make([]float64, n+2)
	for j := -1; j <= n; j++ {
		gj := local.GlobalLat(j)
		if gj < 0 {
			gj = 0
		}
		if gj > spec.Nlat-1 {
			gj = spec.Nlat - 1
		}
		d.cosC[j+1] = spec.CosLatCenter(gj)
		d.fC[j+1] = spec.Coriolis(gj)
		// Northern edge of local row j is global edge gj+1.
		edge := local.GlobalLat(j) + 1
		if edge < 0 {
			edge = 0
		}
		if edge > spec.Nlat {
			edge = spec.Nlat
		}
		d.cosN[j+1] = spec.CosLatEdge(edge)
		d.fN[j+1] = 2 * grid.Omega * math.Sin(spec.LatEdge(edge))
	}
	d.tend = tendencies{
		du: grid.NewField(local, 0),
		dv: grid.NewField(local, 0),
		dh: grid.NewField(local, 0),
	}
	return d
}

// CFLTimeStep returns the largest stable time step for gravity waves at
// the given latitude on this C-grid: the staggered discrete dispersion is
// omega = 2*c*sqrt(sin^2(kx*dx/2)/dx^2 + sin^2(ky*dy/2)/dy^2), whose
// maximum gives dt <= 1 / (2*c*sqrt(1/dx^2 + 1/dy^2)).  The polar filter
// makes the critical-latitude value usable globally.
func CFLTimeStep(spec grid.Spec, lat float64) float64 {
	c := math.Sqrt(grid.Gravity * MeanDepth)
	dx := grid.EarthRadius * math.Cos(lat) * spec.DLon()
	dy := grid.EarthRadius * spec.DLat()
	return 1 / (2 * c * math.Sqrt(1/(dx*dx)+1/(dy*dy)))
}

// Filter returns the spectral filter in use (nil if unfiltered).
func (d *Dynamics) Filter() filter.Parallel { return d.filter }
