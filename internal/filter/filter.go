// Package filter implements the UCLA AGCM's polar spectral filtering — the
// component the paper identifies as the scalability bottleneck of the
// original parallel code — in all the variants the paper compares:
//
//   - the original convolution-form filter evaluated in physical space,
//     with ring or binary-tree data motion (Section 2, Wehner et al.);
//   - the FFT filter after a latitudinal data transpose (Section 3.2);
//   - the load-balanced FFT filter, which first redistributes the rows to
//     be filtered evenly over the processor mesh (Section 3.3, Figs 2-3).
//
// The filter damps fast-moving inertia-gravity waves near the poles so that
// a uniform time step satisfying the CFL condition at mid-latitudes remains
// stable where the zonal grid distance shrinks: each latitude circle is
// Fourier transformed, wavenumber s is scaled by a prescribed damping
// S(s, lat) <= 1, and the circle is transformed back.  Strong filtering
// covers roughly half of all latitudes (poleward of 45 degrees); weak
// filtering covers roughly one third (poleward of 60 degrees).
package filter

import (
	"fmt"
	"math"

	"agcm/internal/fft"
	"agcm/internal/grid"
)

// Kind selects the filter strength applied to a variable.
type Kind int

const (
	// Strong filtering is applied from the poles to 45 degrees.
	Strong Kind = iota
	// Weak filtering is applied from the poles to 60 degrees.
	Weak
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case Strong:
		return "strong"
	case Weak:
		return "weak"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// CritLat returns the filter's critical latitude in radians: filtering is
// applied poleward of this latitude, and the damping is calibrated so that
// waves at the critical latitude pass unchanged.
func (k Kind) CritLat() float64 {
	switch k {
	case Strong:
		return 45 * math.Pi / 180
	case Weak:
		return 60 * math.Pi / 180
	}
	panic(fmt.Sprintf("filter: invalid kind %d", int(k)))
}

// Damping returns the filter response S(s, lat) for zonal wavenumber index
// s on a latitude circle of nlon points at the given latitude:
//
//	S(s, lat) = min(1, [cos(lat) / (cos(critLat) * sin(pi*s/nlon))]^2)
//
// the Arakawa-Lamb idea: damp each wavenumber just enough that its
// effective phase speed satisfies the CFL condition of the critical
// latitude.  On the staggered C-grid the discrete gravity-wave frequency
// goes like sin(pi*s/N) (the half-angle of the unstaggered factor), so the
// shortest waves are the fastest and take the hardest damping.  The square
// gives the margin a leapfrog scheme needs: the unstable mode grows like
// 2*C per step while the bracket only shrinks like 1/C, so first-power
// damping is marginal and second-power damping is decisive.  S is
// symmetric in s <-> nlon-s (conjugate wavenumbers), so filtering a real
// row yields a real row, and S(0) = 1 (the zonal mean is never damped).
func Damping(nlon, s int, lat, critLat float64) float64 {
	if s == 0 {
		return 1
	}
	den := math.Cos(critLat) * math.Sin(math.Pi*float64(s)/float64(nlon))
	if den <= 0 {
		return 1
	}
	d := math.Abs(math.Cos(lat)) / den
	if d >= 1 {
		return 1
	}
	return d * d
}

// DampingRow returns the full per-wavenumber damping vector for one
// latitude circle.
func DampingRow(nlon int, lat, critLat float64) []float64 {
	row := make([]float64, nlon)
	for s := range row {
		row[s] = Damping(nlon, s, lat, critLat)
	}
	return row
}

// IsFiltered reports whether global latitude row j requires filtering of
// the given kind.
func IsFiltered(spec grid.Spec, k Kind, j int) bool {
	return math.Abs(spec.LatCenter(j)) >= k.CritLat()
}

// Rows returns the global latitude rows (ascending) that require filtering
// of the given kind — about half of all rows for Strong, a third for Weak.
func Rows(spec grid.Spec, k Kind) []int {
	var rows []int
	for j := 0; j < spec.Nlat; j++ {
		if IsFiltered(spec, k, j) {
			rows = append(rows, j)
		}
	}
	return rows
}

// Coefficients returns the physical-space convolution kernel equivalent to
// the damping vector: c[d] = (1/N) sum_s S(s) exp(2*pi*i*d*s/N), which is
// real because S is symmetric.  The original AGCM evaluated the filter in
// this form at O(N^2) per row.
func Coefficients(damp []float64) []float64 {
	return coefficients(fft.NewPlan(len(damp)), damp, make([]float64, len(damp)))
}

// coefficients is Coefficients on a caller-owned plan and imaginary scratch,
// both of length len(damp).
func coefficients(plan *fft.Plan, damp, im []float64) []float64 {
	re := append(make([]float64, 0, len(damp)+kernelPad), damp...)
	for i := range im {
		im[i] = 0
	}
	plan.Inverse(re, im)
	return re
}

// ApplyRowFFT filters one full latitude circle in place through the
// spectral route: forward FFT, damp, inverse FFT.  plan must have length
// len(row) == len(damp).
func ApplyRowFFT(plan *fft.Plan, damp, row []float64) {
	applyRowFFTScratch(plan, damp, row, make([]float64, len(row)))
}

// applyRowFFTScratch is ApplyRowFFT with caller-owned imaginary scratch of
// length len(row), zeroed on entry by the callee.
func applyRowFFTScratch(plan *fft.Plan, damp, row, im []float64) {
	n := len(row)
	if plan.N() != n || len(damp) != n || len(im) != n {
		panic("filter: ApplyRowFFT length mismatch")
	}
	for s := range im {
		im[s] = 0
	}
	plan.Forward(row, im)
	for s := 0; s < n; s++ {
		row[s] *= damp[s]
		im[s] *= damp[s]
	}
	plan.Inverse(row, im)
}

// LineFlops is the work charged for FFT-filtering one latitude circle of n
// points: the forward and inverse transforms plus the damping multiply.
// The filters charge it to the virtual clock and the roofline counts it.
func LineFlops(n int) float64 { return 2*fft.Flops(n) + 4*float64(n) }

// rowFilter owns one worker's scratch for filtering real latitude circles
// through the half-complex route — the production inner loop, about twice
// as fast natively as the complex path — up to lines circles at once: the
// batch's spectra are interleaved, so each FFT stage runs over all its
// circles per twiddle (fft.RealPlan.ForwardBatch).  Odd lengths (never
// produced by the standard grids) fall back to the complex plan, one
// circle at a time.
type rowFilter struct {
	n, lines int
	plan     *fft.RealPlan
	re, im   []float64   // a batch's interleaved spectra
	damps    [][]float64 // room for a caller's batch of damping rows
	circles  [][]float64 // room for a batch of whole circles: see circleRoom
	odd      *fft.Plan
	oddIm    []float64 // imaginary scratch for the odd-length fallback
}

// newRowFilter builds one worker's row-filtering state for batches of up
// to lines >= 1 circles.  Plans share their tables process-wide, so one
// per worker and per Sequential call is cheap.
func newRowFilter(n, lines int) *rowFilter {
	rf := &rowFilter{n: n, lines: lines, damps: make([][]float64, lines)}
	if n%2 != 0 {
		rf.odd, rf.oddIm = fft.NewPlan(n), make([]float64, n)
		return rf
	}
	h := lines * (n/2 + 1)
	rf.plan, rf.re, rf.im = fft.NewRealBatchPlan(n, lines), make([]float64, h), make([]float64, h)
	return rf
}

// circleRoom returns room for rf.lines whole circles, made on first use: only
// a caller that copies its lines out of the fields needs it.
func (rf *rowFilter) circleRoom() [][]float64 {
	if rf.circles == nil {
		buf := make([]float64, rf.lines*rf.n)
		rf.circles = make([][]float64, rf.lines)
		for l := range rf.circles {
			rf.circles[l] = buf[l*rf.n : (l+1)*rf.n : (l+1)*rf.n]
		}
	}
	return rf.circles
}

// applyBatch filters rows[l] in place with damping damps[l], at most
// rf.lines rows of length n.  Each damping row has length n and is
// symmetric, so only its first half is consulted on the half-complex route.
// Every row gets the bits of a batch of one, wherever a batch is cut.
func (rf *rowFilter) applyBatch(damps, rows [][]float64) {
	L, h := len(rows), rf.n/2+1
	if len(damps) != L {
		panic("filter: rowFilter batch mismatch")
	}
	for _, damp := range damps {
		if len(damp) != rf.n {
			panic("filter: rowFilter length mismatch")
		}
	}
	if rf.odd != nil {
		for l, row := range rows {
			applyRowFFTScratch(rf.odd, damps[l], row, rf.oddIm)
		}
		return
	}
	re, im := rf.re[:L*h], rf.im[:L*h]
	rf.plan.ForwardBatch(rows, re, im)
	for l, damp := range damps {
		for s, d := range damp[:h] {
			re[s*L+l] *= d
			im[s*L+l] *= d
		}
	}
	rf.plan.InverseBatch(re, im, rows)
}

// ApplyRowConvolution filters the points dst[i0:i0+len(dst)] of one full
// latitude circle `row`, wrapping past its end, through the physical-space
// route: f'(i) = sum_n c[n] f((i-n) mod N) — the original code's O(N) per
// point.
func ApplyRowConvolution(coeffs, row, dst []float64, i0 int) {
	n := len(row)
	if len(coeffs) != n {
		panic("filter: ApplyRowConvolution length mismatch")
	}
	walk := make([][]float64, 2)
	for len(dst) > 0 {
		m := min(len(dst), n-i0)
		convolveSegments(coeffs, row, i0, walk, dst[:m])
		dst, i0 = dst[m:], 0
	}
}

// kernelPad is how far convolveSegments reads past a kernel row's last
// coefficient, into its capacity: a group narrower than its body leaves the
// body's top lanes unused.  Coefficients builds rows with that capacity.
const kernelPad = 7

// convolveSegments is the convolution kernel on a circle split into
// segments; no circle is assembled.  It sets dst[t] to sum_d c[d]
// f((o-d) mod n), d ascending, at the point o held in own[lo+t], where
// n = len(c), walk[1:len(walk)-1] are the other segments from the one below
// own down round to the one above it, and walk's ends are scratch.
//
// Groups of up to eight adjacent outputs o..o+G-1 are summed point-major:
// the body reads each point f[m] once, m descending round the circle, and
// adds c[o+g-m] f[m] to accumulator g.  Every accumulator still adds its
// terms in ascending d, the textbook order, so no output's bits depend on
// the grouping.  The body walks the n-G+1 points every accumulator reads,
// own[:o+1], the other segments and own[o+G:]; the terms of the G-1 points
// above o are summed before and after it (tri) from a copy of those points
// between zeros: c[d]*0 is ±0, which changes no partial sum, since a sum
// begun at +0 is never -0.
func convolveSegments(c, own []float64, lo int, walk [][]float64, dst []float64) {
	cw := padKernel(c)
	for t := 0; t < len(dst); {
		G := min(8, len(dst)-t)
		var gr group
		gr.head(c, own, lo+t, G, walk)
		s := &gr.s
		if G > 5 {
			s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = walk8(cw, walk, s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7])
		} else {
			s[0], s[1], s[2], s[3], s[4] = walk5(cw, walk, s[0], s[1], s[2], s[3], s[4])
		}
		t += gr.tail(c, dst[t:t+G])
	}
}

// convolvePair is convolveSegments on two lines that share the segment
// geometry, as lines of one gather do: line l has its own kernel row c[l],
// segment own[l], walk walk[l] and output dst[l], and every run of walk[0]
// is as long as walk[1]'s.  The lines may be one and the same.  Groups of
// five outputs or fewer take one walk5Pair for both lines; wider groups
// take convolveSegments, line by line.  Either way each output gets
// convolveSegments' bits.
func convolvePair(c, own [2][]float64, lo int, walk [2][][]float64, dst [2][]float64) {
	cw := [2][]float64{padKernel(c[0]), padKernel(c[1])}
	for t := 0; t < len(dst[0]); t += 8 {
		G := min(8, len(dst[0])-t)
		if G > 5 {
			for l := range c {
				convolveSegments(c[l], own[l], lo+t, walk[l], dst[l][t:t+G])
			}
			continue
		}
		var gr [2]group
		for l := range gr {
			gr[l].head(c[l], own[l], lo+t, G, walk[l])
		}
		walk5Pair(cw, walk, &gr[0].s, &gr[1].s)
		for l := range gr {
			gr[l].tail(c[l], dst[l][t:t+G])
		}
	}
}

// padKernel returns kernel row c resliced to reach kernelPad values past its
// end, copied first if its capacity is short: the walks read that far.
func padKernel(c []float64) []float64 {
	n := len(c)
	if cap(c) < n+kernelPad {
		c = append(make([]float64, 0, n+kernelPad), c...)
	}
	return c[:n+kernelPad]
}

// group is one group of G <= 8 adjacent outputs o..o+G-1 of
// convolveSegments: its accumulators, and the G-1 points above o between
// zeros that tri reads.
type group struct {
	s [8]float64
	z [23]float64
}

// head starts a group: it copies the points above o, adds their terms
// before the walk and sets walk's ends to own's points the body reads.
func (gr *group) head(c, own []float64, o, G int, walk [][]float64) {
	copy(gr.z[8:], own[o+1:o+G])
	s := &gr.s
	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = tri(c[:G-1], gr.z[9-G:], 0, 0, 0, 0, 0, 0, 0, 0)
	walk[0], walk[len(walk)-1] = own[:o+1], own[o+G:]
}

// tail ends a group after the walk: it adds the terms of the points above
// o that follow it, stores the len(dst) outputs in dst and returns their
// count.
func (gr *group) tail(c, dst []float64) int {
	G, s := len(dst), &gr.s
	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = tri(c[len(c)-G+1:], gr.z[8:], s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7])
	return copy(dst, s[:G])
}

// tri adds c[d]*z[len(c)-1-d+g] to accumulator g, d ascending: the
// triangles of terms convolveSegments sums apart from the walk.
func tri(c, z []float64, s0, s1, s2, s3, s4, s5, s6, s7 float64) (float64, float64, float64, float64, float64, float64, float64, float64) {
	for d, cd := range c {
		p := z[len(c)-1-d:][:8]
		s0 += cd * p[0]
		s1 += cd * p[1]
		s2 += cd * p[2]
		s3 += cd * p[3]
		s4 += cd * p[4]
		s5 += cd * p[5]
		s6 += cd * p[6]
		s7 += cd * p[7]
	}
	return s0, s1, s2, s3, s4, s5, s6, s7
}

// walk8 is convolveSegments' body: it adds c[k+g]*x to accumulator g for
// the k-th point x of walk, every run read from its end down.
func walk8(c []float64, walk [][]float64, s0, s1, s2, s3, s4, s5, s6, s7 float64) (float64, float64, float64, float64, float64, float64, float64, float64) {
	k := 0
	for _, run := range walk {
		w := c[k:]
		k += len(run)
		for q := len(run) - 1; q >= 0; q-- {
			x := run[q]
			_ = w[7]
			s0 += w[0] * x
			s1 += w[1] * x
			s2 += w[2] * x
			s3 += w[3] * x
			s4 += w[4] * x
			s5 += w[5] * x
			s6 += w[6] * x
			s7 += w[7] * x
			w = w[1:]
		}
	}
	return s0, s1, s2, s3, s4, s5, s6, s7
}

// walk5 is walk8 on five accumulators, for groups of five or fewer: the 4-
// and 5-wide subdomains of the 8x30 mesh take one pass each, not a 4-wide
// one plus a 1-wide chain of dependent adds.
func walk5(c []float64, walk [][]float64, s0, s1, s2, s3, s4 float64) (float64, float64, float64, float64, float64) {
	k := 0
	for _, run := range walk {
		w := c[k:]
		k += len(run)
		for q := len(run) - 1; q >= 0; q-- {
			x := run[q]
			_ = w[4]
			s0 += w[0] * x
			s1 += w[1] * x
			s2 += w[2] * x
			s3 += w[3] * x
			s4 += w[4] * x
			w = w[1:]
		}
	}
	return s0, s1, s2, s3, s4
}

// walk5Pair is walk5 on two lines at once: it adds c[l][k+g]*x to s[l][g],
// g < 5, for the k-th point x of walk[l].  Every run of walk[0] must be as
// long as walk[1]'s, and each c[l] must reach four values past the walk's
// last point.  The AVX kernel (walk5PairAVX) runs it when pairAsm is set;
// otherwise two walk5 calls do, the reference it must match bit for bit.
func walk5Pair(c [2][]float64, walk [2][][]float64, s0, s1 *[8]float64) {
	if pairAsm {
		walk5PairAVX(c[0], c[1], walk[0], walk[1], s0, s1)
		return
	}
	s0[0], s0[1], s0[2], s0[3], s0[4] = walk5(c[0], walk[0], s0[0], s0[1], s0[2], s0[3], s0[4])
	s1[0], s1[1], s1[2], s1[3], s1[4] = walk5(c[1], walk[1], s1[0], s1[1], s1[2], s1[3], s1[4])
}

// Variable binds a field to the filter strength it receives.  In the AGCM,
// the velocity components get strong filtering while thermodynamic
// variables get weak filtering.
type Variable struct {
	Name  string
	Kind  Kind
	Field *grid.Field
}

// Sequential applies the filter to every variable on a single-subdomain
// (1x1 decomposition) field set; it is the correctness oracle for the
// parallel variants, so it builds its own damping rows with DampingRow
// rather than read the response tables they share.
func Sequential(spec grid.Spec, vars []Variable) {
	rf := newRowFilter(spec.Nlon, 1)
	damps, rows := rf.damps, [][]float64{make([]float64, spec.Nlon)}
	for _, v := range vars {
		l := v.Field.Local()
		if l.Nlat() != spec.Nlat || l.Nlon() != spec.Nlon {
			panic("filter: Sequential requires an undecomposed field")
		}
		for _, j := range Rows(spec, v.Kind) {
			damps[0] = DampingRow(spec.Nlon, spec.LatCenter(j), v.Kind.CritLat())
			for k := 0; k < spec.Nlayers; k++ {
				v.Field.RowSlice(j, k, rows[0])
				rf.applyBatch(damps, rows)
				v.Field.SetRowSlice(j, k, rows[0])
			}
		}
	}
}

// line identifies one unit of filtering work: a full latitude circle of one
// variable at one layer.
type line struct {
	v, j, k int // variable index, global latitude row, layer
}

// kindsOf returns the filter kind of every variable.
func kindsOf(vars []Variable) []Kind {
	kinds := make([]Kind, len(vars))
	for i, v := range vars {
		kinds[i] = v.Kind
	}
	return kinds
}

// buildLines enumerates every line to be filtered for variables of the
// given kinds, in the canonical order (variable, row, layer).  The list is
// counted before it is built, so it is one exact allocation.
func buildLines(spec grid.Spec, kinds []Kind) []line {
	lines := make([]line, 0, LineCount(spec, kinds))
	for vi, kind := range kinds {
		for j := 0; j < spec.Nlat; j++ {
			if !IsFiltered(spec, kind, j) {
				continue
			}
			for k := 0; k < spec.Nlayers; k++ {
				lines = append(lines, line{v: vi, j: j, k: k})
			}
		}
	}
	return lines
}

// LineCount returns the number of (variable, row, layer) lines filtered per
// step for the given spec and variable kinds — the workload size that the
// load-balancing distributes.
func LineCount(spec grid.Spec, kinds []Kind) int {
	n := 0
	for _, k := range kinds {
		n += len(Rows(spec, k)) * spec.Nlayers
	}
	return n
}
