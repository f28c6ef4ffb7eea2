package physics

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"agcm/internal/grid"
)

// oracleModel is the column physics as it stood before the block kernel
// (commit 71c05a5): CosZenith, Cloudiness and Compute moved here verbatim,
// receiver renamed, every math call still made per column.  It is the
// referee the block kernel and its tables are compared against bit for bit.
type oracleModel struct {
	Spec        grid.Spec
	StepsPerDay int

	t4, winv []float64
}

// CosZenith returns the cosine of the solar zenith angle for the column at
// the given step (equinox declination; the sun moves once around per
// simulated day).  Positive means daylight.
func (m *oracleModel) CosZenith(c *Column, step int) float64 {
	lat := m.Spec.LatCenter(c.J)
	lon := m.Spec.LonCenter(c.I)
	hour := lon + 2*math.Pi*float64(step%m.StepsPerDay)/float64(m.StepsPerDay)
	return math.Cos(lat) * math.Cos(hour)
}

// Cloudiness returns the column's cloud fraction in [0, 1]: a moisture-
// weighted seeded noise field that evolves every few steps.
func (m *oracleModel) Cloudiness(c *Column, step int) float64 {
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

func (m *oracleModel) Compute(c *Column, step int) float64 {
	k := len(c.T)
	flops := float64(baseFlops)

	// --- Longwave radiation: every layer pair exchanges. ---
	// Scaled Stefan-Boltzmann exchange, cooling upper layers that are
	// warmer than their neighbours would be in radiative equilibrium.
	// The fourth powers and pair weights are cached — refreshed as each
	// layer updates — with the identical multiplication chain and
	// division, so every term matches the direct nested loop bit for bit.
	if cap(m.t4) < k {
		m.t4 = make([]float64, k)
		m.winv = make([]float64, k)
		for d := 0; d < k; d++ {
			m.winv[d] = 1.0 / float64(1+d)
		}
	}
	t4 := m.t4[:k]
	winv := m.winv[:k]
	for kk := 0; kk < k; kk++ {
		t := c.T[kk] / 300
		t4[kk] = t * t * t * t
	}
	for k1 := 0; k1 < k; k1++ {
		var heat float64
		p1 := t4[k1]
		for k2 := 0; k2 < k1; k2++ {
			heat += winv[k1-k2] * (t4[k2] - p1)
		}
		for k2 := k1 + 1; k2 < k; k2++ {
			heat += winv[k2-k1] * (t4[k2] - p1)
		}
		c.T[k1] += 0.02 * heat
		t := c.T[k1] / 300
		t4[k1] = t * t * t * t
	}
	flops += float64(k*(k+1)/2) * lwPairFlops

	// --- Shortwave radiation: daylight columns only. ---
	cosz := m.CosZenith(c, step)
	cloud := m.Cloudiness(c, step)
	if cosz > 0 {
		absorb := 0.5 * cosz * (1 - 0.6*cloud)
		for kk := 0; kk < k; kk++ {
			c.T[kk] += 0.01 * absorb / float64(1+kk)
		}
		flops += float64(k) * swLayerFlops
		// Cloudy layers add overlap/scattering work.
		flops += cloud * float64(k) * cloudLayerFlops
	}

	// --- Boundary-layer mixing of heat and moisture. ---
	for kk := 0; kk+1 < min(3, k); kk++ {
		dT := c.T[kk] - c.T[kk+1]
		c.T[kk] -= 0.05 * dT * 0.1
		c.T[kk+1] += 0.05 * dT * 0.1
		dQ := c.Q[kk] - c.Q[kk+1]
		c.Q[kk] -= 0.02 * dQ
		c.Q[kk+1] += 0.02 * dQ
	}
	flops += float64(k) * pblLayerFlops

	// --- Cumulus convection: conditional instability drives a variable
	// number of adjustment iterations — the paper's dominant source of
	// unpredictable load. ---
	// Surface heating plus tropical moisture destabilize the column.
	if cosz > 0 {
		c.T[0] += 0.15 * cosz * (1 - 0.3*cloud)
	}
	critLapse := 2.0 - 80.0*c.Q[0] // moist columns convect sooner
	if critLapse < 0.3 {
		critLapse = 0.3
	}
	iters := 0
	for ; iters < MaxConvectionIters; iters++ {
		adjusted := false
		for kk := 0; kk+1 < k; kk++ {
			lapse := c.T[kk] - c.T[kk+1]
			if lapse > critLapse+6.0*float64(kk) {
				ex := 0.5 * (lapse - 6.0*float64(kk))
				c.T[kk] -= 0.5 * ex
				c.T[kk+1] += 0.5 * ex
				c.Q[kk] *= 0.97 // rainout
				adjusted = true
			}
		}
		if !adjusted {
			break
		}
	}
	flops += float64(iters) * float64(k) * cuIterLayerFlops

	// --- Weak relaxation keeps profiles bounded over long runs. ---
	lat := m.Spec.LatCenter(c.J)
	teq := 288 - 60*math.Sin(lat)*math.Sin(lat)
	qeq := 0.015 * math.Cos(lat)
	for kk := 0; kk < k; kk++ {
		c.T[kk] += 0.002 * (teq - 6*float64(kk) - c.T[kk])
		c.Q[kk] += 0.002 * (qeq*math.Exp(-0.4*float64(kk)) - c.Q[kk])
		if c.Q[kk] < 0 {
			c.Q[kk] = 0
		}
	}
	return flops
}

// computeColumns drives the block kernel the way Runner.Step does: blocks of
// blockWidth columns and a shorter tail.
func computeColumns(m *Model, cols []Column, step int, flops []float64) {
	for at := 0; at < len(cols); at += blockWidth {
		n := min(blockWidth, len(cols)-at)
		m.computeBlock(cols[at:at+n], step, flops[at:at+n])
	}
}

func cloneColumn(c *Column) Column {
	cp := *c
	cp.T = append([]float64(nil), c.T...)
	cp.Q = append([]float64(nil), c.Q...)
	return cp
}

// sameBits reports the first difference between a block-computed column and
// the oracle's, comparing every value by its bit pattern.
func sameBits(t *testing.T, got, want *Column, gotFlops, wantFlops float64, format string, args ...any) {
	t.Helper()
	if math.Float64bits(gotFlops) != math.Float64bits(wantFlops) {
		t.Fatalf("%s: flops %v, oracle %v", fmt.Sprintf(format, args...), gotFlops, wantFlops)
	}
	for k := range want.T {
		if math.Float64bits(got.T[k]) != math.Float64bits(want.T[k]) {
			t.Fatalf("%s: T[%d] = %v, oracle %v", fmt.Sprintf(format, args...), k, got.T[k], want.T[k])
		}
		if math.Float64bits(got.Q[k]) != math.Float64bits(want.Q[k]) {
			t.Fatalf("%s: Q[%d] = %v, oracle %v", fmt.Sprintf(format, args...), k, got.Q[k], want.Q[k])
		}
	}
}

// TestBlockMatchesColumnOracle holds the block kernel to the per-column
// oracle bit for bit: every T, every Q and the returned flop count, for
// shallow through deep models, day and night, dry polar columns through
// tropical ones that exhaust the convection iterations, every block length
// from one column to two full blocks and a tail, in a shuffled order — the
// columns are independent, so any order and any neighbours give the same
// bits.
func TestBlockMatchesColumnOracle(t *testing.T) {
	const pool = 400
	for _, layers := range []int{1, 2, 3, 9, 15} {
		spec := grid.Spec{Nlon: 24, Nlat: 16, Nlayers: layers}
		oracle := &oracleModel{Spec: spec, StepsPerDay: stepsPerDay}
		m := NewModel(spec, stepsPerDay)
		rng := rand.New(rand.NewSource(int64(layers)))
		for _, step := range []int{0, 5, stepsPerDay + 5, 29, 7 * stepsPerDay} {
			// A pool of columns and the oracle's verdict on each.
			in := make([]Column, pool)
			want := make([]Column, pool)
			wantFlops := make([]float64, pool)
			var day, night int
			iters := map[int]bool{}
			for n := range in {
				c := testColumn(spec, rng.Intn(spec.Nlat), rng.Intn(spec.Nlon))
				amp := []float64{0, 1, 10, 40}[rng.Intn(4)]
				wet := 2 * rng.Float64()
				for k := range c.T {
					c.T[k] += amp * rng.NormFloat64()
					c.Q[k] *= wet
				}
				in[n] = *c
				want[n] = cloneColumn(c)
				cloud := oracle.Cloudiness(c, step)
				wantFlops[n] = oracle.Compute(&want[n], step)
				// Recover the convection count from the cost.
				rest := wantFlops[n] - baseFlops - float64(layers*(layers+1)/2)*lwPairFlops - float64(layers)*pblLayerFlops
				if oracle.CosZenith(c, step) > 0 {
					day++
					rest -= float64(layers)*swLayerFlops + cloud*float64(layers)*cloudLayerFlops
				} else {
					night++
				}
				iters[int(math.Round(rest/(float64(layers)*cuIterLayerFlops)))] = true
			}
			if day == 0 || night == 0 {
				t.Fatalf("layers %d step %d: %d day and %d night columns", layers, step, day, night)
			}
			if layers >= 3 && (!iters[0] || !iters[MaxConvectionIters] || len(iters) < 4) {
				t.Fatalf("layers %d step %d: convection counts seen %v", layers, step, iters)
			}
			for n := 1; n <= 2*blockWidth+1; n++ {
				order := rng.Perm(pool)[:n]
				cols := make([]Column, n)
				flops := make([]float64, n)
				for l, idx := range order {
					cols[l] = cloneColumn(&in[idx])
				}
				computeColumns(m, cols, step, flops)
				for l, idx := range order {
					sameBits(t, &cols[l], &want[idx], flops[l], wantFlops[idx],
						"layers %d step %d block of %d lane %d", layers, step, n, l)
				}
			}
			// Compute is the same kernel on a block of one.
			for idx := 0; idx < pool; idx += 37 {
				c := cloneColumn(&in[idx])
				f := m.Compute(&c, step)
				sameBits(t, &c, &want[idx], f, wantFlops[idx], "layers %d step %d Compute", layers, step)
			}
		}
	}
}

// TestTablesMatchDirectCalls checks every table entry, and the cached hour
// angle, against the math expression the per-column code evaluated, bit for
// bit.
func TestTablesMatchDirectCalls(t *testing.T) {
	same := func(what string, idx int, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s[%d] = %v, direct call gives %v", what, idx, got, want)
		}
	}
	for _, spec := range []grid.Spec{grid.TwoByTwoPointFive(9), grid.TwoByTwoPointFive(15),
		{Nlon: 24, Nlat: 16, Nlayers: 4}, {Nlon: 8, Nlat: 1 << 12, Nlayers: 2}} {
		m := NewModel(spec, stepsPerDay)
		tab := &m.tab
		for j := 0; j < spec.Nlat; j++ {
			lat := spec.LatCenter(j)
			same("cosLat", j, tab.cosLat[j], math.Cos(lat))
			same("teq", j, tab.teq[j], 288-60*math.Sin(lat)*math.Sin(lat))
			same("qeq", j, tab.qeq[j], 0.015*math.Cos(lat))
		}
		for k := 0; k < spec.Nlayers; k++ {
			same("wpair", k, tab.wpair[spec.Nlayers-1+k], 1.0/float64(1+k))
			same("wpair", -k, tab.wpair[spec.Nlayers-1-k], 1.0/float64(1+k))
			same("layer1", k, tab.layer1[k], float64(1+k))
			same("six", k, tab.six[k], 6*float64(k))
			same("expk", k, tab.expk[k], math.Exp(-0.4*float64(k)))
		}
		// The hour angle: a first (computed) and a second (cached) read at
		// each step, steps that share a phase, and a step back.
		oracle := &oracleModel{Spec: spec, StepsPerDay: stepsPerDay}
		for _, step := range []int{0, 0, 7, stepsPerDay + 7, 8, 7, 3 * stepsPerDay} {
			for i := 0; i < spec.Nlon; i++ {
				c := &Column{J: spec.Nlat / 3, I: i}
				same("CosZenith", i, m.CosZenith(c, step), oracle.CosZenith(c, step))
			}
		}
	}
}

// fuzzColumns decodes a fuzz input into n columns of the given depth: the
// raw bytes, read cyclically eight at a time, are the bit patterns of the
// T and Q profiles.  NaNs are replaced — which payload survives an
// operation on two different NaNs is the one thing that may depend on
// operand order — and everything else, infinities and denormals included,
// is kept.
func fuzzColumns(spec grid.Spec, raw []byte, j, i uint8, n int) []Column {
	at := 0
	next := func() float64 {
		var b [8]byte
		for x := range b {
			b[x] = raw[(at+x)%len(raw)]
		}
		at += 8
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		if math.IsNaN(v) {
			v = 250
		}
		return v
	}
	cols := make([]Column, n)
	for l := range cols {
		c := &cols[l]
		c.J, c.I = (int(j)+l)%spec.Nlat, (int(i)+5*l)%spec.Nlon
		c.T, c.Q = make([]float64, spec.Nlayers), make([]float64, spec.Nlayers)
		for k := range c.T {
			c.T[k], c.Q[k] = next(), next()
		}
	}
	return cols
}

// FuzzBlockBits feeds the block kernel raw profile bits, a grid position, a
// step and a block length, and requires the per-column oracle's bits back.
func FuzzBlockBits(f *testing.F) {
	seed := func(spec grid.Spec, amp float64) []byte {
		rng := rand.New(rand.NewSource(int64(spec.Nlayers)))
		var raw []byte
		for n := 0; n < 2*blockWidth+1; n++ {
			c := testColumn(spec, rng.Intn(spec.Nlat), rng.Intn(spec.Nlon))
			for k := range c.T {
				raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(c.T[k]+amp*rng.NormFloat64()))
				raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(c.Q[k]*2*rng.Float64()))
			}
		}
		return raw
	}
	for _, layers := range []uint8{1, 2, 3, 9, 15} {
		spec := grid.Spec{Nlon: 24, Nlat: 16, Nlayers: int(layers)}
		f.Add(seed(spec, 0), layers, uint8(3), uint8(0), int32(0), uint8(1))
		f.Add(seed(spec, 10), layers, uint8(8), uint8(12), int32(29), uint8(blockWidth))
		f.Add(seed(spec, 40), layers, uint8(11), uint8(20), int32(-5), uint8(2*blockWidth+1))
	}
	f.Fuzz(func(t *testing.T, raw []byte, layers, j, i uint8, step int32, n uint8) {
		if len(raw) == 0 {
			return
		}
		spec := grid.Spec{Nlon: 24, Nlat: 16, Nlayers: 1 + int(layers)%15}
		cols := fuzzColumns(spec, raw, j, i, 1+int(n)%(2*blockWidth+1))
		want := make([]Column, len(cols))
		for l := range cols {
			want[l] = cloneColumn(&cols[l])
		}
		flops := make([]float64, len(cols))
		computeColumns(NewModel(spec, stepsPerDay), cols, int(step), flops)
		oracle := &oracleModel{Spec: spec, StepsPerDay: stepsPerDay}
		for l := range cols {
			f := oracle.Compute(&want[l], int(step))
			sameBits(t, &cols[l], &want[l], flops[l], f, "lane %d of %d", l, len(cols))
		}
	})
}
