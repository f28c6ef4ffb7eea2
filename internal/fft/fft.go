// Package fft implements the fast Fourier transforms used by the spectral
// filtering module: an iterative radix-2 complex FFT for power-of-two
// lengths and Bluestein's chirp-z algorithm for arbitrary lengths (the AGCM's
// 2°x2.5° grid has 144 longitudes, which is not a power of two).
//
// Plans precompute twiddle factors and scratch storage so the per-row cost in
// the filtering inner loop is allocation free.  The package also exposes the
// standard 5*n*log2(n) flop-count model, which the simulator charges to the
// virtual clock when the parallel filter runs FFTs.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// maxMixedRadixFactor is the largest prime factor handled by the mixed-radix
// kernel; lengths with a larger prime factor fall back to Bluestein.
const maxMixedRadixFactor = 37

// Plan holds the precomputed state for transforms of one length.
// A Plan is not safe for concurrent use; create one per goroutine.
type Plan struct {
	n int

	// Radix-2 state (used when n is a power of two).
	rev    []int     // bit-reversal permutation
	cosTab []float64 // twiddle cosines, one per butterfly distance level
	sinTab []float64

	// Mixed-radix state (used for smooth composite lengths such as the
	// AGCM's 144 longitudes = 2^4 * 3^2).
	factors []int     // prime factorization of n, ascending
	twRe    []float64 // full twiddle table W_n^j
	twIm    []float64
	mrRe    []float64 // combine scratch
	mrIm    []float64

	// Bluestein state (used when n has a prime factor > maxMixedRadixFactor).
	m         int // power-of-two convolution length >= 2n-1
	inner     *Plan
	chirpRe   []float64 // chirp a_k = exp(-i*pi*k^2/n)
	chirpIm   []float64
	bFFTRe    []float64 // FFT of the chirp filter b
	bFFTIm    []float64
	scratchRe []float64
	scratchIm []float64
}

// kind reports which kernel a plan uses.
func (p *Plan) kind() int {
	switch {
	case p.rev != nil:
		return kindRadix2
	case p.factors != nil:
		return kindMixed
	default:
		return kindBluestein
	}
}

const (
	kindRadix2 = iota
	kindMixed
	kindBluestein
)

// NewPlan creates a transform plan for length n >= 1.
func NewPlan(n int) *Plan {
	if n < 1 {
		panic(fmt.Sprintf("fft: invalid length %d", n))
	}
	p := &Plan{n: n}
	switch {
	case isPow2(n):
		p.initRadix2()
	case smooth(n):
		p.initMixedRadix()
	default:
		p.initBluestein()
	}
	return p
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

func (p *Plan) initMixedRadix() {
	n := p.n
	p.factors = factorize(n)
	p.twRe = make([]float64, n)
	p.twIm = make([]float64, n)
	for j := 0; j < n; j++ {
		ang := -2 * math.Pi * float64(j) / float64(n)
		p.twRe[j] = math.Cos(ang)
		p.twIm[j] = math.Sin(ang)
	}
	p.mrRe = make([]float64, n)
	p.mrIm = make([]float64, n)
}

// mixedRadix computes the forward DFT in place via recursive Cooley-Tukey
// decomposition over p.factors.
func (p *Plan) mixedRadix(re, im []float64) {
	outRe := p.mrRe[:p.n]
	outIm := p.mrIm[:p.n]
	p.mrRec(outRe, outIm, re, im, 0, 1, 0)
	copy(re, outRe)
	copy(im, outIm)
}

// mrRec writes into out the n'-point DFT of the strided input sequence
// in[off], in[off+stride], ..., where n' = n / product(factors[:fi]) is
// implied by len(out).
func (p *Plan) mrRec(outRe, outIm, inRe, inIm []float64, off, stride, fi int) {
	n := len(outRe)
	if n == 1 {
		outRe[0], outIm[0] = inRe[off], inIm[off]
		return
	}
	f := p.factors[fi]
	m := n / f
	// Recurse on the f decimated subsequences; subsequence r lands in
	// out[r*m : (r+1)*m].
	for r := 0; r < f; r++ {
		p.mrRec(outRe[r*m:(r+1)*m], outIm[r*m:(r+1)*m], inRe, inIm,
			off+r*stride, stride*f, fi+1)
	}
	// Combine: X[q + m*s] = sum_r W_ncur^{r*(q+m*s)} * Y_r[q].
	// Twiddles come from the full-length table: W_ncur^j == W_N^{j*mult}.
	// For a fixed q, the writes X[q+m*s] land exactly on the positions
	// Y_r[q] that were read, so a q-row is buffered before writing back
	// and the combine is in-place.
	mult := p.n / n
	var tr, ti [maxMixedRadixFactor + 1]float64
	for q := 0; q < m; q++ {
		for s := 0; s < f; s++ {
			k := q + m*s
			var sr, si float64
			for r := 0; r < f; r++ {
				idx := (r * k) % n * mult
				yr, yi := outRe[r*m+q], outIm[r*m+q]
				wr, wi := p.twRe[idx], p.twIm[idx]
				sr += yr*wr - yi*wi
				si += yr*wi + yi*wr
			}
			tr[s], ti[s] = sr, si
		}
		for s := 0; s < f; s++ {
			outRe[q+m*s], outIm[q+m*s] = tr[s], ti[s]
		}
	}
}

// N returns the transform length.
func (p *Plan) N() int { return p.n }

func isPow2(n int) bool { return n&(n-1) == 0 }

func (p *Plan) initRadix2() {
	n := p.n
	p.rev = make([]int, n)
	logN := bits.TrailingZeros(uint(n))
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - logN))
	}
	// Twiddles for each level: w_len^j for len = 2,4,...,n.
	p.cosTab = make([]float64, n)
	p.sinTab = make([]float64, n)
	// Layout: level with half-size h stores its h twiddles at offset h.
	for h := 1; h < n; h *= 2 {
		for j := 0; j < h; j++ {
			ang := -math.Pi * float64(j) / float64(h)
			p.cosTab[h+j] = math.Cos(ang)
			p.sinTab[h+j] = math.Sin(ang)
		}
	}
}

func (p *Plan) initBluestein() {
	n := p.n
	m := 1
	for m < 2*n-1 {
		m *= 2
	}
	p.m = m
	p.inner = NewPlan(m)
	p.chirpRe = make([]float64, n)
	p.chirpIm = make([]float64, n)
	for k := 0; k < n; k++ {
		// k^2 mod 2n keeps the angle argument small and exact.
		sq := (k * k) % (2 * n)
		ang := -math.Pi * float64(sq) / float64(n)
		p.chirpRe[k] = math.Cos(ang)
		p.chirpIm[k] = math.Sin(ang)
	}
	// b_k = conj(chirp_k) for k in (-n, n), wrapped into length m.
	bRe := make([]float64, m)
	bIm := make([]float64, m)
	for k := 0; k < n; k++ {
		bRe[k] = p.chirpRe[k]
		bIm[k] = -p.chirpIm[k]
		if k > 0 {
			bRe[m-k] = p.chirpRe[k]
			bIm[m-k] = -p.chirpIm[k]
		}
	}
	p.inner.Forward(bRe, bIm)
	p.bFFTRe = bRe
	p.bFFTIm = bIm
	p.scratchRe = make([]float64, m)
	p.scratchIm = make([]float64, m)
}

// Forward computes the in-place unnormalized DFT:
// X_s = sum_k x_k exp(-2*pi*i*k*s/n).
// re and im must each have length n.
func (p *Plan) Forward(re, im []float64) {
	p.checkLen(re, im)
	switch p.kind() {
	case kindRadix2:
		p.radix2(re, im)
	case kindMixed:
		p.mixedRadix(re, im)
	default:
		p.bluestein(re, im, false)
	}
}

// Inverse computes the in-place inverse DFT with 1/n normalization, so
// Inverse(Forward(x)) == x.
func (p *Plan) Inverse(re, im []float64) {
	p.checkLen(re, im)
	// Inverse via conjugation: IDFT(x) = conj(DFT(conj(x)))/n.
	for i := range im {
		im[i] = -im[i]
	}
	switch p.kind() {
	case kindRadix2:
		p.radix2(re, im)
	case kindMixed:
		p.mixedRadix(re, im)
	default:
		p.bluestein(re, im, false)
	}
	inv := 1 / float64(p.n)
	for i := range re {
		re[i] *= inv
		im[i] *= -inv
	}
}

func (p *Plan) checkLen(re, im []float64) {
	if len(re) != p.n || len(im) != p.n {
		panic(fmt.Sprintf("fft: plan length %d, buffers %d/%d", p.n, len(re), len(im)))
	}
}

// radix2 is the iterative Cooley-Tukey kernel.
func (p *Plan) radix2(re, im []float64) {
	n := p.n
	for i := 0; i < n; i++ {
		j := p.rev[i]
		if j > i {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for h := 1; h < n; h *= 2 {
		for base := 0; base < n; base += 2 * h {
			for j := 0; j < h; j++ {
				c, s := p.cosTab[h+j], p.sinTab[h+j]
				a, b := base+j, base+j+h
				tr := re[b]*c - im[b]*s
				ti := re[b]*s + im[b]*c
				re[b] = re[a] - tr
				im[b] = im[a] - ti
				re[a] += tr
				im[a] += ti
			}
		}
	}
}

// bluestein evaluates the DFT of arbitrary length as a convolution with a
// chirp, using the inner power-of-two plan.
func (p *Plan) bluestein(re, im []float64, _ bool) {
	n, m := p.n, p.m
	aRe, aIm := p.scratchRe, p.scratchIm
	for i := range aRe {
		aRe[i], aIm[i] = 0, 0
	}
	for k := 0; k < n; k++ {
		aRe[k] = re[k]*p.chirpRe[k] - im[k]*p.chirpIm[k]
		aIm[k] = re[k]*p.chirpIm[k] + im[k]*p.chirpRe[k]
	}
	p.inner.Forward(aRe, aIm)
	for i := 0; i < m; i++ {
		r := aRe[i]*p.bFFTRe[i] - aIm[i]*p.bFFTIm[i]
		aIm[i] = aRe[i]*p.bFFTIm[i] + aIm[i]*p.bFFTRe[i]
		aRe[i] = r
	}
	// Inverse inner transform via conjugation.
	for i := 0; i < m; i++ {
		aIm[i] = -aIm[i]
	}
	p.inner.Forward(aRe, aIm)
	invM := 1 / float64(m)
	for k := 0; k < n; k++ {
		cr := aRe[k] * invM
		ci := -aIm[k] * invM
		re[k] = cr*p.chirpRe[k] - ci*p.chirpIm[k]
		im[k] = cr*p.chirpIm[k] + ci*p.chirpRe[k]
	}
}

// Flops returns the operation-count model for one complex FFT of length n,
// which the simulator charges to the virtual clock.  Power-of-two and
// smooth composite lengths (every AGCM grid length, e.g. 144 = 2^4*3^2)
// cost the standard 5*n*log2(n); lengths with a large prime factor cost the
// Bluestein route (three FFTs of length m >= 2n-1 plus O(n+m) multiplies),
// matching what the implementation actually does.
func Flops(n int) float64 {
	if n <= 1 {
		return 0
	}
	if isPow2(n) || smooth(n) {
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
