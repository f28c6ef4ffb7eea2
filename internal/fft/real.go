package fft

import "fmt"

// RealPlan transforms real sequences of even length n through a complex
// plan of length n/2 (the standard packing trick), producing the
// half-complex spectrum X[0..n/2].  Latitude circles are real, so the
// filtering inner loop uses this plan at roughly half the cost of the
// complex route.
type RealPlan struct {
	n    int
	half Plan // its tables carry the unpack twiddles e^{-2*pi*i*s/n}
	// Scratch for the packed signals, n/2 points per line.
	zRe, zIm []float64
}

// NewRealPlan creates a real-input plan for even length n >= 2.
func NewRealPlan(n int) *RealPlan { return NewRealBatchPlan(n, 1) }

// NewRealBatchPlan creates a real-input plan for even length n >= 2 whose
// batch calls transform up to lines >= 1 lines at once.
func NewRealBatchPlan(n, lines int) *RealPlan {
	if n < 2 || n%2 != 0 || lines < 1 {
		panic(fmt.Sprintf("fft: real plan needs even n >= 2 and lines >= 1, got %d, %d", n, lines))
	}
	m := n / 2
	t := tablesFor(m)
	// The packed signals go straight to their slots, so only Bluestein's
	// convolution needs the half plan's own scratch.
	scratch := 0
	if t.kind() == kindBluestein {
		scratch = t.scratchLen(1)
	}
	buf := make([]float64, 2*m*lines+scratch)
	p := &RealPlan{n: n, zRe: buf[:m*lines], zIm: buf[m*lines : 2*m*lines]}
	p.half.bind(t, lines, buf[2*m*lines:])
	return p
}

// N returns the real transform length.
func (p *RealPlan) N() int { return p.n }

// Forward computes the half-complex spectrum of the real sequence x:
// re[s] + i*im[s] = sum_k x[k] exp(-2*pi*i*k*s/n) for s = 0..n/2.
// re and im must have length n/2+1; im[0] and im[n/2] come out zero.
func (p *RealPlan) Forward(x []float64, re, im []float64) {
	p.ForwardBatch([][]float64{x}, re, im)
}

// Inverse reconstructs the real sequence from its half-complex spectrum,
// with the usual 1/n normalization so Inverse(Forward(x)) == x.
func (p *RealPlan) Inverse(re, im []float64, x []float64) {
	p.InverseBatch(re, im, [][]float64{x})
}

// ForwardBatch is Forward on the L = len(xs) lines xs, L at most the
// plan's line count, with the spectra interleaved: bin s of line l is
// re[s*L+l] + i*im[s*L+l].  Every line gets Forward's bits.
func (p *RealPlan) ForwardBatch(xs [][]float64, re, im []float64) {
	p.checkLen(xs, re, im)
	L, m := len(xs), p.n/2
	zRe, zIm := p.zRe[:m*L], p.zIm[:m*L]
	// Pack even/odd samples into a complex signal, each point into its
	// slot, and transform it.
	for k := 0; k < m; k++ {
		o := p.half.slot[k] * L
		zr, zi := zRe[o:o+L], zIm[o:o+L]
		for l, x := range xs {
			zr[l], zi[l] = x[2*k], x[2*k+1]
		}
	}
	p.half.run(zRe, zIm, L)
	// Unpack: with E, O the DFTs of the even and odd subsequences,
	// Z[s] = E[s] + i O[s]; X[s] = E[s] + w^s O[s].  Z has period m, so the
	// two end bins pair Z[0] with itself.
	for s := 0; s <= m; s++ {
		a, b := s, m-s
		if s == m {
			a = 0
		}
		if s == 0 {
			b = 0
		}
		wr, wi := p.half.unRe[s], p.half.unIm[s]
		a, b = a*L, b*L
		for o := s * L; o < (s+1)*L; o++ {
			zr, zi := zRe[a], zIm[a]
			zcr, zci := zRe[b], -zIm[b]
			er := 0.5 * (zr + zcr)
			ei := 0.5 * (zi + zci)
			or := 0.5 * (zi - zci)  // O = (Z - conj(Zm))/(2i):
			oi := -0.5 * (zr - zcr) // real and imaginary parts
			re[o] = er + wr*or - wi*oi
			im[o] = ei + wr*oi + wi*or
			a++
			b++
		}
	}
	clear(im[:L])
	clear(im[m*L:])
}

// InverseBatch is Inverse on the lines xs, their spectra interleaved as
// ForwardBatch leaves them.
func (p *RealPlan) InverseBatch(re, im []float64, xs [][]float64) {
	p.checkLen(xs, re, im)
	L, m := len(xs), p.n/2
	zRe, zIm := p.zRe[:m*L], p.zIm[:m*L]
	// Repack: Z[s] = E[s] + i O[s] with E, O recovered from X via
	// E[s] = (X[s] + conj(X[m-s]))/2, w^s O[s] = (X[s] - conj(X[m-s]))/2.
	// The half plan's Inverse is conj(DFT(conj(Z)))/m, so each point goes
	// to its slot conjugated, and the 1/m and the outer conjugation are
	// folded into the unpack to the lines.
	for s := 0; s < m; s++ {
		sm := m - s
		// O[s] = conj(w^s) * d.
		wr, wi := p.half.unRe[s], -p.half.unIm[s]
		o, b := p.half.slot[s]*L, sm*L
		for a := s * L; a < (s+1)*L; a++ {
			xr, xi := re[a], im[a]
			ycr, yci := re[b], -im[b]
			er := 0.5 * (xr + ycr)
			ei := 0.5 * (xi + yci)
			dr := 0.5 * (xr - ycr)
			di := 0.5 * (xi - yci)
			or := wr*dr - wi*di
			oi := wr*di + wi*dr
			zRe[o] = er - oi
			zIm[o] = -(ei + or)
			o++
			b++
		}
	}
	p.half.run(zRe, zIm, L)
	inv := 1 / float64(m)
	for k := 0; k < m; k++ {
		zr, zi := zRe[k*L:k*L+L], zIm[k*L:k*L+L]
		for l, x := range xs {
			x[2*k] = zr[l] * inv
			x[2*k+1] = zi[l] * -inv
		}
	}
}

func (p *RealPlan) checkLen(xs [][]float64, re, im []float64) {
	L, h := len(xs), p.n/2+1
	ok := L >= 1 && L <= p.half.lines && len(re) == L*h && len(im) == L*h
	for _, x := range xs {
		ok = ok && len(x) == p.n
	}
	if !ok {
		panic(fmt.Sprintf("fft: real plan length %d for up to %d lines, given %d lines and spectra %d/%d",
			p.n, p.half.lines, L, len(re), len(im)))
	}
}
