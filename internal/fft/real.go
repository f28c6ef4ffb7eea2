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
	// Scratch for the packed signal.
	zRe, zIm []float64
}

// NewRealPlan creates a real-input plan for even length n >= 2.
func NewRealPlan(n int) *RealPlan {
	if n < 2 || n%2 != 0 {
		panic(fmt.Sprintf("fft: real plan needs even n >= 2, got %d", n))
	}
	m := n / 2
	t := tablesFor(m)
	buf := make([]float64, 2*m+t.scratchLen())
	p := &RealPlan{n: n, zRe: buf[:m], zIm: buf[m : 2*m]}
	p.half.bind(t, buf[2*m:])
	return p
}

// N returns the real transform length.
func (p *RealPlan) N() int { return p.n }

// Forward computes the half-complex spectrum of the real sequence x:
// re[s] + i*im[s] = sum_k x[k] exp(-2*pi*i*k*s/n) for s = 0..n/2.
// re and im must have length n/2+1; im[0] and im[n/2] come out zero.
func (p *RealPlan) Forward(x []float64, re, im []float64) {
	m := p.n / 2
	if len(x) != p.n || len(re) != m+1 || len(im) != m+1 {
		panic("fft: real Forward length mismatch")
	}
	// Pack even/odd samples into a complex signal and transform it; the
	// mixed-radix kernel packs as it gathers into its scratch.
	if h := &p.half; h.kind() == kindMixed {
		for i, j := range h.perm {
			h.sRe[i], h.sIm[i] = x[2*j], x[2*j+1]
		}
		h.runStages(p.zRe, p.zIm)
	} else {
		for k := 0; k < m; k++ {
			p.zRe[k] = x[2*k]
			p.zIm[k] = x[2*k+1]
		}
		h.transform(p.zRe, p.zIm, false)
	}
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
		zr, zi := p.zRe[a], p.zIm[a]
		zcr, zci := p.zRe[b], -p.zIm[b]
		er := 0.5 * (zr + zcr)
		ei := 0.5 * (zi + zci)
		or := 0.5 * (zi - zci)  // O = (Z - conj(Zm))/(2i):
		oi := -0.5 * (zr - zcr) // real and imaginary parts
		wr, wi := p.half.unRe[s], p.half.unIm[s]
		re[s] = er + wr*or - wi*oi
		im[s] = ei + wr*oi + wi*or
	}
	im[0] = 0
	im[m] = 0
}

// Inverse reconstructs the real sequence from its half-complex spectrum,
// with the usual 1/n normalization so Inverse(Forward(x)) == x.
func (p *RealPlan) Inverse(re, im []float64, x []float64) {
	m := p.n / 2
	if len(x) != p.n || len(re) != m+1 || len(im) != m+1 {
		panic("fft: real Inverse length mismatch")
	}
	// Repack: Z[s] = E[s] + i O[s] with E, O recovered from X via
	// E[s] = (X[s] + conj(X[m-s]))/2, w^s O[s] = (X[s] - conj(X[m-s]))/2.
	for s := 0; s < m; s++ {
		sm := m - s
		xr, xi := re[s], im[s]
		ycr, yci := re[sm], -im[sm]
		er := 0.5 * (xr + ycr)
		ei := 0.5 * (xi + yci)
		dr := 0.5 * (xr - ycr)
		di := 0.5 * (xi - yci)
		// O[s] = conj(w^s) * d.
		wr, wi := p.half.unRe[s], -p.half.unIm[s]
		or := wr*dr - wi*di
		oi := wr*di + wi*dr
		p.zRe[s] = er - oi
		p.zIm[s] = ei + or
	}
	// The half plan's Inverse, its 1/m normalisation folded into the
	// interleave.
	p.half.transform(p.zRe, p.zIm, true)
	inv := 1 / float64(m)
	for k := 0; k < m; k++ {
		x[2*k] = p.zRe[k] * inv
		x[2*k+1] = p.zIm[k] * -inv
	}
}
