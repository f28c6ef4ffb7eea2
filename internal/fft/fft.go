// Package fft implements the fast Fourier transforms used by the spectral
// filtering module.  The length picks one of two kernels: a compiled
// mixed-radix FFT for lengths whose prime factors are all at most 37 (powers
// of two among them; the AGCM's 2°x2.5° grid has 144 = 2^4*3^2 longitudes,
// and its real rows transform at half that, 72 = 2^3*3^2); and Bluestein's
// chirp-z algorithm over a power-of-two convolution, itself run on the
// compiled stages, for the rest.
//
// A plan is two parts.  The tables (permutations, twiddle streams, chirp
// spectra) depend only on the length, are built once per length per process
// and shared read-only by every plan of that length (plans.go); the scratch
// is one allocation private to the plan.  Creating a plan is therefore cheap,
// and its transforms allocate nothing.
//
// The mixed-radix kernel computes, bit for bit, what the recursive
// decimation-in-time evaluation it replaced computed (that recursion lives on
// in the tests as the oracle): every output is a sum that starts from +0 and
// adds its f products in order of r, every twiddle read from the one
// full-length table.  The r = 0 product is y*W^0 with W^0 = (1, -0); for
// finite y it is exactly y up to the sign of a zero, and a sum started from
// +0 absorbs that sign, so the kernel starts each sum at y_0 + 0 and
// multiplies only the r >= 1 terms, whose twiddles are all a stage stores.
// Simulated results are hashed, so the kernel may reorder loads and stores
// but never the arithmetic.
//
// A plan built for lines > 1 also transforms a batch of up to that many
// lines in one call (ForwardBatch, InverseBatch).  A batch of L complex
// lines, and a real batch's spectra, are stored interleaved: point j of
// line l at j*L + l, so each gather, stage and real pack or unpack runs over
// a row of L values per twiddle.  The real plan takes its L real lines as
// separate slices and packs them straight into that layout.  The bit
// contract: each line gets the same expressions in the same order as a
// call on that line alone, so a batch's bits are its lines' bits whatever
// L and wherever a batch is cut.  A one-line call is a batch of one, so one
// body per radix serves every L and a compiler that fuses multiply-adds
// fuses every L alike.  Bluestein plans transform a batch line by line.
//
// The package also exposes the standard 5*n*log2(n) flop-count model, which
// the simulator charges to the virtual clock when the parallel filter runs
// FFTs.
package fft

import (
	"fmt"
	"math"
)

// maxMixedRadixFactor is the largest prime factor handled by the mixed-radix
// kernel; lengths with a larger prime factor fall back to Bluestein.
const maxMixedRadixFactor = 37

// tables is everything about a transform that depends only on its length.
// It is never written after newTables returns, so plans on any number of
// goroutines share one copy.
type tables struct {
	n int

	// Mixed-radix state (used for smooth lengths such as the AGCM's 144
	// longitudes = 2^4 * 3^2): the recursion over the prime factors,
	// flattened.
	perm   []int   // digit-reversal gather: scratch[i] = x[perm[i]]
	stages []stage // one per prime factor, innermost recursion level first

	// slot[j] is where point j goes before run: the inverse of perm for
	// the mixed-radix kernel, j itself for Bluestein.
	slot []int

	// Bluestein state (used when n has a prime factor > maxMixedRadixFactor).
	m       int       // power-of-two convolution length >= 2n-1
	inner   *tables   // mixed-radix tables of length m
	chirpRe []float64 // chirp a_k = exp(-i*pi*k^2/n)
	chirpIm []float64
	bFFTRe  []float64 // FFT of the chirp filter b
	bFFTIm  []float64

	// Unpack twiddles e^{-2*pi*i*s/(2n)}, s = 0..n, for the RealPlan of
	// length 2n that runs on these tables.
	unRe, unIm []float64
}

// stage combines, in every block of f*m consecutive points, f transforms of
// length m into one of length f*m.
type stage struct {
	f, m int
	// tw holds the (re, im) twiddles in the order the loops consume them:
	// for q < m, for s < f, for 1 <= r < f: W_{f*m}^{r*(q+m*s)}.  The r = 0
	// twiddle is W^0 and never multiplies (see the package comment).
	tw []float64
}

// Plan is a transform of one length: shared tables plus private scratch
// for up to lines interleaved lines.  A Plan is not safe for concurrent use;
// create one per goroutine.
type Plan struct {
	*tables
	lines    int
	sRe, sIm []float64 // n*lines each (mixed radix) or 2m each (Bluestein)
}

const (
	kindMixed = iota
	kindBluestein
)

// kind reports which kernel the tables drive.
func (t *tables) kind() int {
	if t.stages != nil {
		return kindMixed
	}
	return kindBluestein
}

// scratchLen is the number of floats a plan on these tables needs to
// transform lines lines at once.
func (t *tables) scratchLen(lines int) int {
	if t.kind() == kindMixed {
		return 2 * t.n * lines
	}
	return 4 * t.m
}

// NewPlan creates a transform plan for length n >= 1.
func NewPlan(n int) *Plan { return NewBatchPlan(n, 1) }

// NewBatchPlan creates a plan for length n >= 1 whose batch calls
// transform up to lines >= 1 lines at once.
func NewBatchPlan(n, lines int) *Plan {
	if n < 1 || lines < 1 {
		panic(fmt.Sprintf("fft: invalid length %d or line count %d", n, lines))
	}
	t := tablesFor(n)
	p := new(Plan)
	p.bind(t, lines, make([]float64, t.scratchLen(lines)))
	return p
}

// bind points p at t and at a caller-made scratch allocation, which it
// splits into the real and imaginary halves.
func (p *Plan) bind(t *tables, lines int, scratch []float64) {
	h := len(scratch) / 2
	p.tables, p.lines, p.sRe, p.sIm = t, lines, scratch[:h], scratch[h:2*h]
}

func newTables(n int) *tables {
	t := &tables{n: n, unRe: make([]float64, n+1), unIm: make([]float64, n+1)}
	if smooth(n) {
		t.initMixedRadix()
	} else {
		t.initBluestein()
	}
	for s := range t.unRe {
		ang := -2 * math.Pi * float64(s) / float64(2*n)
		t.unRe[s] = math.Cos(ang)
		t.unIm[s] = math.Sin(ang)
	}
	t.slot = make([]int, n)
	for i := range t.slot {
		t.slot[i] = i
	}
	for i, j := range t.perm {
		t.slot[j] = i
	}
	return t
}

// factorize returns the ascending prime factorization of n.
func factorize(n int) []int {
	var fs []int
	for f := 2; f*f <= n; f++ {
		for n%f == 0 {
			fs = append(fs, f)
			n /= f
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	return fs
}

// smooth reports whether every prime factor of n is at most
// maxMixedRadixFactor.  It divides the small factors out in place, so the
// cost model (Flops) can ask on a hot path without allocating.
func smooth(n int) bool {
	for f := 2; f <= maxMixedRadixFactor; f++ {
		for n%f == 0 {
			n /= f
		}
	}
	return n == 1
}

// initMixedRadix compiles the recursive decimation-in-time transform over
// the ascending prime factors f_0, f_1, ... of n.  Level i of that recursion
// splits a sequence of stride S_i = f_0*...*f_{i-1} into f_i subsequences
// and leaves subsequence r in the r-th block of length n/(S_i*f_i), so the
// leaves amount to one gather (perm) and each level to one stage.
func (t *tables) initMixedRadix() {
	n := t.n
	factors := factorize(n)
	twRe := make([]float64, n) // full twiddle table W_n^j
	twIm := make([]float64, n)
	for j := 0; j < n; j++ {
		ang := -2 * math.Pi * float64(j) / float64(n)
		twRe[j] = math.Cos(ang)
		twIm[j] = math.Sin(ang)
	}
	t.perm = make([]int, n)
	for i := range t.perm {
		rest, block, stride := i, n, 1
		for _, f := range factors {
			block /= f
			t.perm[i] += rest / block * stride
			rest %= block
			stride *= f
		}
	}
	t.stages = make([]stage, 0, len(factors))
	m := 1
	for fi := len(factors) - 1; fi >= 0; fi-- {
		f := factors[fi]
		// W_{f*m}^j == W_n^{j*mult}.
		mult := n / (f * m)
		tw := make([]float64, 0, 2*m*f*(f-1))
		for q := 0; q < m; q++ {
			for s := 0; s < f; s++ {
				for r := 1; r < f; r++ {
					idx := (r * (q + m*s)) % (f * m) * mult
					tw = append(tw, twRe[idx], twIm[idx])
				}
			}
		}
		t.stages = append(t.stages, stage{f: f, m: m, tw: tw})
		m *= f
	}
}

// mixedRadix computes the forward DFT of the L interleaved lines in
// (re, im), or of their conjugates: it gathers them into the scratch, runs
// the stages there in place and returns the scratch.
func (p *Plan) mixedRadix(re, im []float64, L int, conj bool) ([]float64, []float64) {
	sRe, sIm := p.sRe[:p.n*L], p.sIm[:p.n*L]
	for i, j := range p.perm {
		j *= L
		for o := i * L; o < (i+1)*L; o++ {
			sRe[o], sIm[o] = re[j], im[j]
			if conj {
				sIm[o] = -im[j]
			}
			j++
		}
	}
	p.runStages(sRe, sIm, L)
	return sRe, sIm
}

// run computes the forward DFT of the L interleaved lines in (re, im) in
// place, point j of each line already at its slot[j].
func (p *Plan) run(re, im []float64, L int) {
	if p.kind() == kindMixed {
		p.runStages(re, im, L)
		return
	}
	for l := 0; l < L; l++ {
		p.bluestein(re[l:], im[l:], L)
	}
}

// runStages runs the stages in place over L gathered lines.
func (t *tables) runStages(sRe, sIm []float64, L int) {
	for i := range t.stages {
		st := &t.stages[i]
		switch st.f {
		case 2:
			st.radix2(sRe, sIm, L)
		case 3:
			st.radix3(sRe, sIm, L)
		default:
			st.generic(sRe, sIm, L)
		}
	}
}

// generic is the stage body for any prime f: with Y_r the r-th transform of
// length m in a block, X[q + m*s] = sum_r W^{r*(q+m*s)} * Y_r[q].  For a
// fixed q the writes land on the positions just read, so a q-row is
// buffered.  Each sum is y_0 + 0 plus its r >= 1 terms in order of r — the
// arithmetic every simulated result is pinned to; radix2 and radix3 are
// this loop unrolled, statement for statement.  Point j of line l is at
// j*L + l, so every line of a batch reads the twiddles of a q in turn.
func (st *stage) generic(sRe, sIm []float64, L int) {
	f, mL := st.f, st.m*L
	var tr, ti [maxMixedRadixFactor]float64
	for base := 0; base < len(sRe); base += f * mL {
		twq := st.tw
		for q := base; q < base+mL; q += L {
			for l := q; l < q+L; l++ {
				tw := twq
				y0r, y0i := sRe[l]+0, sIm[l]+0
				for s := 0; s < f; s++ {
					sr, si := y0r, y0i
					for r := 1; r < f; r++ {
						yr, yi := sRe[l+r*mL], sIm[l+r*mL]
						wr, wi := tw[2*r-2], tw[2*r-1]
						sr += yr*wr - yi*wi
						si += yr*wi + yi*wr
					}
					tr[s], ti[s] = sr, si
					tw = tw[2*(f-1):]
				}
				for s := 0; s < f; s++ {
					sRe[l+mL*s], sIm[l+mL*s] = tr[s], ti[s]
				}
			}
			twq = twq[2*f*(f-1):]
		}
	}
}

// radix2 and radix3 are generic unrolled for f = 2 and 3, statement for
// statement.  Each butterfly runs over the row of L values of every point
// it reads, one twiddle load for the row; the rows are resliced to one
// length, so the loop over them has no bounds checks.
func (st *stage) radix2(sRe, sIm []float64, L int) {
	mL := st.m * L
	for base := 0; base < len(sRe); base += 2 * mL {
		tw := st.tw
		for q := base; q < base+mL; q += L {
			w := tw[:4]
			tw = tw[4:]
			w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
			ar := sRe[q : q+L]
			ai, br, bi := sIm[q : q+L][:len(ar)], sRe[q+mL : q+mL+L][:len(ar)], sIm[q+mL : q+mL+L][:len(ar)]
			for i := range ar {
				y0r, y0i := ar[i]+0, ai[i]+0
				y1r, y1i := br[i], bi[i]
				x0r := y0r + (y1r*w0 - y1i*w1)
				x0i := y0i + (y1r*w1 + y1i*w0)
				x1r := y0r + (y1r*w2 - y1i*w3)
				x1i := y0i + (y1r*w3 + y1i*w2)
				ar[i], ai[i] = x0r, x0i
				br[i], bi[i] = x1r, x1i
			}
		}
	}
}

func (st *stage) radix3(sRe, sIm []float64, L int) {
	mL := st.m * L
	for base := 0; base < len(sRe); base += 3 * mL {
		tw := st.tw
		for q := base; q < base+mL; q += L {
			w := tw[:12]
			tw = tw[12:]
			w0, w1, w2, w3, w4, w5 := w[0], w[1], w[2], w[3], w[4], w[5]
			w6, w7, w8, w9, w10, w11 := w[6], w[7], w[8], w[9], w[10], w[11]
			b, c := q+mL, q+2*mL
			ar := sRe[q : q+L]
			ai, br, bi := sIm[q : q+L][:len(ar)], sRe[b : b+L][:len(ar)], sIm[b : b+L][:len(ar)]
			cr, ci := sRe[c : c+L][:len(ar)], sIm[c : c+L][:len(ar)]
			for i := range ar {
				y0r, y0i := ar[i]+0, ai[i]+0
				y1r, y1i := br[i], bi[i]
				y2r, y2i := cr[i], ci[i]
				x0r := y0r + (y1r*w0 - y1i*w1)
				x0i := y0i + (y1r*w1 + y1i*w0)
				x0r += y2r*w2 - y2i*w3
				x0i += y2r*w3 + y2i*w2
				x1r := y0r + (y1r*w4 - y1i*w5)
				x1i := y0i + (y1r*w5 + y1i*w4)
				x1r += y2r*w6 - y2i*w7
				x1i += y2r*w7 + y2i*w6
				x2r := y0r + (y1r*w8 - y1i*w9)
				x2i := y0i + (y1r*w9 + y1i*w8)
				x2r += y2r*w10 - y2i*w11
				x2i += y2r*w11 + y2i*w10
				ar[i], ai[i] = x0r, x0i
				br[i], bi[i] = x1r, x1i
				cr[i], ci[i] = x2r, x2i
			}
		}
	}
}

// N returns the transform length.
func (p *Plan) N() int { return p.n }

func (t *tables) initBluestein() {
	n := t.n
	m := 1
	for m < 2*n-1 {
		m *= 2
	}
	t.m = m
	t.inner = newTables(m)
	t.chirpRe = make([]float64, n)
	t.chirpIm = make([]float64, n)
	for k := 0; k < n; k++ {
		// k^2 mod 2n keeps the angle argument small and exact.
		sq := (k * k) % (2 * n)
		ang := -math.Pi * float64(sq) / float64(n)
		t.chirpRe[k] = math.Cos(ang)
		t.chirpIm[k] = math.Sin(ang)
	}
	// b_k = conj(chirp_k) for k in (-n, n), wrapped into length m and
	// written to its inner slots.
	bRe := make([]float64, m)
	bIm := make([]float64, m)
	slot := t.inner.slot
	for k := 0; k < n; k++ {
		bRe[slot[k]] = t.chirpRe[k]
		bIm[slot[k]] = -t.chirpIm[k]
		if k > 0 {
			bRe[slot[m-k]] = t.chirpRe[k]
			bIm[slot[m-k]] = -t.chirpIm[k]
		}
	}
	t.inner.runStages(bRe, bIm, 1)
	t.bFFTRe = bRe
	t.bFFTIm = bIm
}

// Forward computes the in-place unnormalized DFT:
// X_s = sum_k x_k exp(-2*pi*i*k*s/n).
// re and im must each have length n.
func (p *Plan) Forward(re, im []float64) {
	p.checkLen(re, im, 1)
	p.ForwardBatch(re, im)
}

// Inverse computes the in-place inverse DFT with 1/n normalization, so
// Inverse(Forward(x)) == x.
func (p *Plan) Inverse(re, im []float64) {
	p.checkLen(re, im, 1)
	p.InverseBatch(re, im)
}

// ForwardBatch is Forward on L = len(re)/n interleaved lines, L at most
// the plan's line count: point j of line l is re[j*L+l] + i*im[j*L+l].
// Every line gets Forward's bits.
func (p *Plan) ForwardBatch(re, im []float64) {
	L := len(re) / p.n
	p.checkLen(re, im, L)
	if oRe, oIm := p.transform(re, im, L, false); p.kind() == kindMixed {
		copy(re, oRe)
		copy(im, oIm)
	}
}

// InverseBatch is Inverse on L interleaved lines, as ForwardBatch.
func (p *Plan) InverseBatch(re, im []float64) {
	L := len(re) / p.n
	p.checkLen(re, im, L)
	// Inverse via conjugation: IDFT(x) = conj(DFT(conj(x)))/n.
	oRe, oIm := p.transform(re, im, L, true)
	inv := 1 / float64(p.n)
	for i := range re {
		re[i] = oRe[i] * inv
		im[i] = oIm[i] * -inv
	}
}

// transform computes the forward DFT of the L interleaved lines in
// (re, im), or of their conjugates, and returns where it left them: in
// place, or in the scratch of the mixed-radix kernel.
func (p *Plan) transform(re, im []float64, L int, conj bool) ([]float64, []float64) {
	if p.kind() == kindMixed {
		return p.mixedRadix(re, im, L, conj) // conjugates as it gathers
	}
	if conj {
		for i := range im {
			im[i] = -im[i]
		}
	}
	p.run(re, im, L)
	return re, im
}

func (p *Plan) checkLen(re, im []float64, L int) {
	if L < 1 || L > p.lines || len(re) != L*p.n || len(im) != L*p.n {
		panic(fmt.Sprintf("fft: plan length %d for up to %d lines, buffers %d/%d", p.n, p.lines, len(re), len(im)))
	}
}

// bluestein evaluates the DFT of arbitrary length as a convolution with a
// chirp, on the line whose point k is (re[k*L], im[k*L]).  The two inner
// power-of-two transforms run on the inner tables' stages, so their inputs
// are written straight to the inner slots, each into its own half of the
// scratch.
func (p *Plan) bluestein(re, im []float64, L int) {
	n, m, slot := p.n, p.m, p.inner.slot
	aRe, aIm := p.sRe[:m], p.sIm[:m]
	bRe, bIm := p.sRe[m:], p.sIm[m:]
	clear(aRe)
	clear(aIm)
	for k := 0; k < n; k++ {
		aRe[slot[k]] = re[k*L]*p.chirpRe[k] - im[k*L]*p.chirpIm[k]
		aIm[slot[k]] = re[k*L]*p.chirpIm[k] + im[k*L]*p.chirpRe[k]
	}
	p.inner.runStages(aRe, aIm, 1)
	// Multiply by the chirp filter's spectrum and conjugate, for the
	// inverse inner transform via conjugation.
	for i, j := range slot {
		bRe[j] = aRe[i]*p.bFFTRe[i] - aIm[i]*p.bFFTIm[i]
		bIm[j] = -(aRe[i]*p.bFFTIm[i] + aIm[i]*p.bFFTRe[i])
	}
	p.inner.runStages(bRe, bIm, 1)
	invM := 1 / float64(m)
	for k := 0; k < n; k++ {
		cr := bRe[k] * invM
		ci := -bIm[k] * invM
		re[k*L] = cr*p.chirpRe[k] - ci*p.chirpIm[k]
		im[k*L] = cr*p.chirpIm[k] + ci*p.chirpRe[k]
	}
}

// Flops returns the operation-count model for one complex FFT of length n,
// which the simulator charges to the virtual clock.  Smooth lengths (powers
// of two and every AGCM grid length, e.g. 144 = 2^4*3^2) cost the standard
// 5*n*log2(n); lengths with a large prime factor cost the Bluestein route
// (three FFTs of length m >= 2n-1 plus O(n+m) multiplies), matching what the
// implementation actually does.
func Flops(n int) float64 {
	if n <= 1 {
		return 0
	}
	if smooth(n) {
		return 5 * float64(n) * math.Log2(float64(n))
	}
	m := 1
	for m < 2*n-1 {
		m *= 2
	}
	return 3*5*float64(m)*math.Log2(float64(m)) + 8*float64(m) + 12*float64(n)
}

// DFT computes the naive O(n^2) discrete Fourier transform; it exists as a
// test oracle for the fast transforms.
func DFT(re, im []float64) (outRe, outIm []float64) {
	n := len(re)
	outRe = make([]float64, n)
	outIm = make([]float64, n)
	for s := 0; s < n; s++ {
		var sr, si float64
		for k := 0; k < n; k++ {
			ang := -2 * math.Pi * float64(k) * float64(s) / float64(n)
			c, sn := math.Cos(ang), math.Sin(ang)
			sr += re[k]*c - im[k]*sn
			si += re[k]*sn + im[k]*c
		}
		outRe[s] = sr
		outIm[s] = si
	}
	return outRe, outIm
}
