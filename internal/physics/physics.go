// Package physics implements the AGCM/Physics component: column processes
// (radiation, boundary-layer mixing, cumulus convection) whose computational
// cost varies strongly in space and time.  The paper's Section 3.4 measures
// 35-48% load imbalance in this component and balances it with the iterative
// pairwise-exchange scheme; this package provides both the column model that
// creates the imbalance and the parallel runner that executes any of the
// three balancing schemes with real column data movement.
//
// The cost of a column depends, as in the paper, on "whether it is day or
// night, the cloud distribution, and the amount of cumulus convection
// determined by the conditional stability of the atmosphere": the sunlit
// hemisphere pays for shortwave radiation, a seeded pseudo-random cloud
// field modulates the radiative work, and moist tropical columns undergo a
// variable number of convective-adjustment iterations.
package physics

import (
	"math"

	"agcm/internal/grid"
)

// Calibrated per-column operation counts.  With nine layers these average
// about 6800 flops per column per step, which places the simulated
// single-node Physics cost of the 2x2.5x9 model near the paper's Table 4
// residual (total minus Dynamics).
const (
	baseFlops        = 950 // always-on surface/bookkeeping work
	lwPairFlops      = 63  // longwave exchange, per layer pair
	swLayerFlops     = 256 // shortwave path, per layer, daylight only
	cloudLayerFlops  = 162 // extra radiative work per cloudy layer
	pblLayerFlops    = 52  // boundary-layer mixing, per layer
	cuIterLayerFlops = 104 // convective adjustment, per iteration per layer
	// MaxConvectionIters bounds the convective adjustment loop.
	MaxConvectionIters = 6
)

// MeanColumnFlops is the mean operation count of one column with the given
// number of layers: the base and longwave-pair work, and the per-layer work
// at a nominal daylight fraction of 0.5, cloudiness of 0.3 and one
// convective adjustment iteration.  The roofline's physics kernel is priced
// from it.
func MeanColumnFlops(layers int) float64 {
	const layerFlops = 0.5*(swLayerFlops+0.3*cloudLayerFlops) + pblLayerFlops + cuIterLayerFlops
	k := float64(layers)
	return baseFlops + lwPairFlops*k*(k+1)/2 + layerFlops*k
}

// Column is one grid column's physics state, self-contained so it can be
// shipped to another processor, computed there, and returned.
type Column struct {
	// Origin is the world rank whose subdomain owns the column; Index is
	// the column's position in the origin's local column ordering.
	Origin, Index int
	// J, I are the global grid indices (they seed the cloud field and
	// locate the column for the solar geometry).
	J, I int
	// T and Q are the temperature (K) and specific humidity profiles,
	// surface layer first.
	T, Q []float64
}

// blockWidth is how many columns the regular passes of the kernel run
// across at once.  Columns are independent, so a block only changes which
// column's arithmetic the processor has in flight beside which other's: the
// longwave pair sum is a serial add chain per column, and with several
// columns' chains interleaved the adds overlap instead of waiting on each
// other.
const blockWidth = 8

// Model evaluates column physics.  It is deterministic: the same column at
// the same step produces the same result and the same cost on any
// processor — which is what makes load balancing by data movement
// transparent to the simulation's answer.  The tables and scratch fields
// only hold values the computation would otherwise rebuild, from the same
// expressions, so they never change an answer; a Model belongs to one rank
// and Compute is not reentrant.
type Model struct {
	Spec        grid.Spec
	StepsPerDay int

	tab tables

	// One carve.  hourCos[i] is cos(hour) at longitude i for the step phase
	// recorded in hourStamp[i] (phase+StepsPerDay, positive for any step, so
	// zero means not computed yet): the sun's hour angle is evaluated once
	// per longitude and step, not once per column.  t4 is the longwave
	// scratch, blockWidth columns of (T/300)^4 per layer.
	hourCos, hourStamp, t4 []float64
}

// NewModel builds a physics model for the given grid.
func NewModel(spec grid.Spec, stepsPerDay int) *Model {
	if stepsPerDay < 1 {
		panic("physics: StepsPerDay must be positive")
	}
	return newModel(spec, stepsPerDay, newTables(spec))
}

// newModel returns a model over the given tables with its own scratch.
func newModel(spec grid.Spec, stepsPerDay int, tab tables) *Model {
	carve := make([]float64, 2*spec.Nlon+blockWidth*spec.Nlayers)
	return &Model{Spec: spec, StepsPerDay: stepsPerDay, tab: tab,
		hourCos: carve[:spec.Nlon], hourStamp: carve[spec.Nlon : 2*spec.Nlon], t4: carve[2*spec.Nlon:]}
}

// worker returns a model for another worker of the same rank: m's tables,
// which no kernel writes, and scratch of its own.
func (m *Model) worker() *Model { return newModel(m.Spec, m.StepsPerDay, m.tab) }

// noise01 is a deterministic hash of (j, i, epoch) to [0, 1): the
// unpredictable-but-reproducible cloud field.
func noise01(j, i, epoch int) float64 {
	x := uint64(j)*0x9E3779B97F4A7C15 ^ uint64(i)*0xC2B2AE3D27D4EB4F ^ uint64(epoch)*0x165667B19E3779F9
	x ^= x >> 31
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 27
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// cosHour returns the cosine of the sun's hour angle at longitude i in the
// given phase of the day (step % StepsPerDay).
func (m *Model) cosHour(i, phase int) float64 {
	if stamp := float64(phase + m.StepsPerDay); m.hourStamp[i] != stamp {
		hour := m.Spec.LonCenter(i) + 2*math.Pi*float64(phase)/float64(m.StepsPerDay)
		m.hourCos[i], m.hourStamp[i] = math.Cos(hour), stamp
	}
	return m.hourCos[i]
}

// CosZenith returns the cosine of the solar zenith angle for the column at
// the given step (equinox declination; the sun moves once around per
// simulated day).  Positive means daylight.
func (m *Model) CosZenith(c *Column, step int) float64 {
	return m.tab.cosLat[c.J] * m.cosHour(c.I, step%m.StepsPerDay)
}

// Cloudiness returns the column's cloud fraction in [0, 1]: a moisture-
// weighted seeded noise field that evolves every few steps.
func (m *Model) Cloudiness(c *Column, step int) float64 {
	qsfc := c.Q[0]
	moist := qsfc / 0.015 // ~1 in the tropics, ~0 at the poles
	if moist > 1 {
		moist = 1
	}
	n := noise01(c.J, c.I, step/4)
	cf := 0.3*moist + 0.7*moist*n
	if cf > 1 {
		cf = 1
	}
	return cf
}

// Compute runs the column physics for one step, mutating T and Q in place,
// and returns the calibrated flop count of the work performed — the number
// the caller charges to the virtual clock.  The cost varies column to
// column exactly as the paper describes, producing the load imbalance that
// Section 3.4 measures.  It is the block kernel on a block of one.
func (m *Model) Compute(c *Column, step int) float64 {
	var flops [1]float64
	m.computeBlock([]Column{*c}, step, flops[:])
	return flops[0]
}

// pairSums returns layer k1's longwave heating for two columns at once: for
// each, the sum over the other layers k2, in ascending order, of
// w[k2]*(p[k2]-p[k1]).  Each sum is a serial chain of adds; with two columns
// in one loop the chains advance side by side in registers.
func pairSums(pa, pb, w []float64, k1 int) (ha, hb float64) {
	w, pb = w[:len(pa)], pb[:len(pa)]
	a1, b1 := pa[k1], pb[k1]
	for k2, wk := range w[:k1] {
		ha += wk * (pa[k2] - a1)
		hb += wk * (pb[k2] - b1)
	}
	for k2 := k1 + 1; k2 < len(pa); k2++ {
		ha += w[k2] * (pa[k2] - a1)
		hb += w[k2] * (pb[k2] - b1)
	}
	return ha, hb
}

// heatLayer applies layer k1's longwave heating to the profile and
// refreshes the layer's cached fourth power.
func heatLayer(T, p []float64, k1 int, heat float64) {
	T[k1] += 0.02 * heat
	t := T[k1] / 300
	p[k1] = t * t * t * t
}

// computeBlock runs the column physics over up to blockWidth columns of
// equal depth (at most Spec.Nlayers), mutating each T and Q in place and
// storing each column's flop count in flops.  Every column goes through
// exactly the operations, in exactly the order, it would go through alone.
func (m *Model) computeBlock(cols []Column, step int, flops []float64) {
	tab := &m.tab
	k := len(cols[0].T)
	layer1, six, expk := tab.layer1[:k], tab.six[:k], tab.expk[:k]

	// --- Longwave radiation: every layer pair exchanges. ---
	// Scaled Stefan-Boltzmann exchange, cooling upper layers that are
	// warmer than their neighbours would be in radiative equilibrium.
	// The fourth powers are cached and refreshed as each layer updates.
	// Layer k1 of every column is done before layer k1+1 of any: one
	// column's pair sum is a serial chain of adds, and a layer of one column
	// is short enough that the processor has several columns' chains in
	// flight at once.
	for l := range cols {
		p := m.t4[l*k : (l+1)*k]
		for kk, v := range cols[l].T[:k] {
			t := v / 300
			p[kk] = t * t * t * t
		}
	}
	for k1 := 0; k1 < k; k1++ {
		w := tab.wpair[m.Spec.Nlayers-1-k1:]
		for a := 0; a < len(cols); a += 2 {
			b := min(a+1, len(cols)-1) // an odd last column pairs with itself
			pa, pb := m.t4[a*k:(a+1)*k], m.t4[b*k:(b+1)*k]
			ha, hb := pairSums(pa, pb, w, k1)
			heatLayer(cols[a].T, pa, k1, ha)
			if b != a {
				heatLayer(cols[b].T, pb, k1, hb)
			}
		}
	}

	var cosz, cloud [blockWidth]float64
	phase := step % m.StepsPerDay
	for l := range cols {
		c := &cols[l]
		T := c.T[:k]
		f := float64(baseFlops)
		f += float64(k*(k+1)/2) * lwPairFlops

		// --- Shortwave radiation: daylight columns only. ---
		cosz[l] = tab.cosLat[c.J] * m.cosHour(c.I, phase)
		cloud[l] = m.Cloudiness(c, step)
		if cosz[l] > 0 {
			absorb := 0.5 * cosz[l] * (1 - 0.6*cloud[l])
			for kk := range T {
				T[kk] += 0.01 * absorb / layer1[kk]
			}
			f += float64(k) * swLayerFlops
			// Cloudy layers add overlap/scattering work.
			f += cloud[l] * float64(k) * cloudLayerFlops
		}

		// --- Boundary-layer mixing of heat and moisture. ---
		Q := c.Q[:k]
		for kk := 0; kk+1 < min(3, k); kk++ {
			dT := T[kk] - T[kk+1]
			T[kk] -= 0.05 * dT * 0.1
			T[kk+1] += 0.05 * dT * 0.1
			dQ := Q[kk] - Q[kk+1]
			Q[kk] -= 0.02 * dQ
			Q[kk+1] += 0.02 * dQ
		}
		f += float64(k) * pblLayerFlops
		flops[l] = f
	}

	// --- Cumulus convection: conditional instability drives a variable
	// number of adjustment iterations — the paper's dominant source of
	// unpredictable load.  Data-dependent, so it runs column by column. ---
	for l := range cols {
		T, Q := cols[l].T[:k], cols[l].Q[:k]
		// Surface heating plus tropical moisture destabilize the column.
		if cosz[l] > 0 {
			T[0] += 0.15 * cosz[l] * (1 - 0.3*cloud[l])
		}
		critLapse := 2.0 - 80.0*Q[0] // moist columns convect sooner
		if critLapse < 0.3 {
			critLapse = 0.3
		}
		iters := 0
		for ; iters < MaxConvectionIters; iters++ {
			adjusted := false
			for kk := 0; kk+1 < k; kk++ {
				lapse := T[kk] - T[kk+1]
				if lapse > critLapse+six[kk] {
					ex := 0.5 * (lapse - six[kk])
					T[kk] -= 0.5 * ex
					T[kk+1] += 0.5 * ex
					Q[kk] *= 0.97 // rainout
					adjusted = true
				}
			}
			if !adjusted {
				break
			}
		}
		flops[l] += float64(iters) * float64(k) * cuIterLayerFlops
	}

	// --- Weak relaxation keeps profiles bounded over long runs. ---
	for l := range cols {
		T, Q := cols[l].T[:k], cols[l].Q[:k]
		teq, qeq := tab.teq[cols[l].J], tab.qeq[cols[l].J]
		for kk := range T {
			T[kk] += 0.002 * (teq - six[kk] - T[kk])
			Q[kk] += 0.002 * (qeq*expk[kk] - Q[kk])
			if Q[kk] < 0 {
				Q[kk] = 0
			}
		}
	}
}

// EstimateFlops returns the cost Compute would report for the column
// without mutating it — used only by tests that need a cheap oracle.
func (m *Model) EstimateFlops(c *Column, step int) float64 {
	cp := &Column{Origin: c.Origin, Index: c.Index, J: c.J, I: c.I,
		T: append([]float64(nil), c.T...), Q: append([]float64(nil), c.Q...)}
	return m.Compute(cp, step)
}
