package fft

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// oracle is the recursive mixed-radix kernel the compiled plan replaced,
// kept statement for statement: it defines the bits every simulated result
// is pinned to.
type oracle struct {
	n          int
	factors    []int
	twRe, twIm []float64 // full twiddle table W_n^j
	mrRe, mrIm []float64 // combine scratch
}

func newOracle(n int) *oracle {
	p := &oracle{n: n, factors: factorize(n)}
	p.twRe = make([]float64, n)
	p.twIm = make([]float64, n)
	for j := 0; j < n; j++ {
		ang := -2 * math.Pi * float64(j) / float64(n)
		p.twRe[j] = math.Cos(ang)
		p.twIm[j] = math.Sin(ang)
	}
	p.mrRe = make([]float64, n)
	p.mrIm = make([]float64, n)
	return p
}

func (p *oracle) Forward(re, im []float64) {
	outRe := p.mrRe[:p.n]
	outIm := p.mrIm[:p.n]
	p.mrRec(outRe, outIm, re, im, 0, 1, 0)
	copy(re, outRe)
	copy(im, outIm)
}

func (p *oracle) Inverse(re, im []float64) {
	for i := range im {
		im[i] = -im[i]
	}
	p.Forward(re, im)
	inv := 1 / float64(p.n)
	for i := range re {
		re[i] *= inv
		im[i] *= -inv
	}
}

// mrRec writes into out the n'-point DFT of the strided input sequence
// in[off], in[off+stride], ..., where n' = n / product(factors[:fi]) is
// implied by len(out).
func (p *oracle) mrRec(outRe, outIm, inRe, inIm []float64, off, stride, fi int) {
	n := len(outRe)
	if n == 1 {
		outRe[0], outIm[0] = inRe[off], inIm[off]
		return
	}
	f := p.factors[fi]
	m := n / f
	for r := 0; r < f; r++ {
		p.mrRec(outRe[r*m:(r+1)*m], outIm[r*m:(r+1)*m], inRe, inIm,
			off+r*stride, stride*f, fi+1)
	}
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

// oracleReal is RealPlan as it stood on the oracle: modulo indexing in the
// unpack loop, twiddles computed per plan.
type oracleReal struct {
	n          int
	half       *oracle
	twRe, twIm []float64
	zRe, zIm   []float64
}

func newOracleReal(n int) *oracleReal {
	m := n / 2
	p := &oracleReal{n: n, half: newOracle(m),
		twRe: make([]float64, m+1), twIm: make([]float64, m+1),
		zRe: make([]float64, m), zIm: make([]float64, m)}
	for s := 0; s <= m; s++ {
		ang := -2 * math.Pi * float64(s) / float64(n)
		p.twRe[s] = math.Cos(ang)
		p.twIm[s] = math.Sin(ang)
	}
	return p
}

func (p *oracleReal) Forward(x, re, im []float64) {
	m := p.n / 2
	for k := 0; k < m; k++ {
		p.zRe[k] = x[2*k]
		p.zIm[k] = x[2*k+1]
	}
	p.half.Forward(p.zRe, p.zIm)
	for s := 0; s <= m; s++ {
		sm := (m - s) % m
		zr, zi := p.zRe[s%m], p.zIm[s%m]
		zcr, zci := p.zRe[sm], -p.zIm[sm]
		er := 0.5 * (zr + zcr)
		ei := 0.5 * (zi + zci)
		or := 0.5 * (zi - zci)
		oi := -0.5 * (zr - zcr)
		wr, wi := p.twRe[s], p.twIm[s]
		re[s] = er + wr*or - wi*oi
		im[s] = ei + wr*oi + wi*or
	}
	im[0] = 0
	im[m] = 0
}

func (p *oracleReal) Inverse(re, im, x []float64) {
	m := p.n / 2
	for s := 0; s < m; s++ {
		sm := m - s
		xr, xi := re[s], im[s]
		ycr, yci := re[sm], -im[sm]
		er := 0.5 * (xr + ycr)
		ei := 0.5 * (xi + yci)
		dr := 0.5 * (xr - ycr)
		di := 0.5 * (xi - yci)
		wr, wi := p.twRe[s], -p.twIm[s]
		or := wr*dr - wi*di
		oi := wr*di + wi*dr
		p.zRe[s] = er - oi
		p.zIm[s] = ei + or
	}
	p.half.Inverse(p.zRe, p.zIm)
	for k := 0; k < m; k++ {
		x[2*k] = p.zRe[k]
		x[2*k+1] = p.zIm[k]
	}
}

// oracleLengths covers every smooth row length and half length the repo's
// grids produce (5 … 288), each unrolled and generic stage body on its own
// (2, 3, 5, 7, 37), the powers of two up to 256, and mixes of them.
var oracleLengths = []int{2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 18, 24, 32, 36, 37, 48, 64, 72, 74, 96, 111, 128, 144, 210, 256, 288, 360}

// awkward are the values a kernel that "simplifies" its arithmetic gets
// wrong: a -0 added to a sum started from +0, products that underflow to a
// signed zero, rounding across eight decades of scale.  The first tiny of
// them are the zeros and denormals.
var awkward = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-310, -2.5e-310,
	1e4, -1e4, 1e-4, -1e-4, 1, -1}

const (
	tiny   = 6
	trials = tiny*tiny + 200
)

// signal fills re and im for the given trial.  The first tiny*tiny trials
// are constant fills, one per (re, im) pair of zeros and denormals: a sum
// that starts from its first term instead of +0 shows only when everything it
// adds is -0.  The rest draw from rng, a quarter of the entries awkward.
func signal(rng *rand.Rand, trial int, re, im []float64) {
	for i := range re {
		switch {
		case trial < tiny*tiny:
			re[i], im[i] = awkward[trial/tiny], awkward[trial%tiny]
		case rng.Intn(4) == 0:
			re[i], im[i] = awkward[rng.Intn(len(awkward))], awkward[rng.Intn(len(awkward))]
		default:
			re[i], im[i] = rng.NormFloat64(), rng.NormFloat64()
		}
	}
}

// sameBits reports the first element whose bit pattern differs.
func sameBits(what string, n int, got, want []float64) error {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("n=%d %s[%d] = %x (%g), oracle %x (%g)", n, what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
	return nil
}

// complexBits runs one forward and one inverse transform of (re, im) through
// the compiled plan and the oracle and compares every bit.
func complexBits(p *Plan, o *oracle, re, im []float64) error {
	n := len(re)
	for _, inverse := range []bool{false, true} {
		gRe, gIm := append([]float64(nil), re...), append([]float64(nil), im...)
		wRe, wIm := append([]float64(nil), re...), append([]float64(nil), im...)
		what := "forward"
		if inverse {
			what = "inverse"
			p.Inverse(gRe, gIm)
			o.Inverse(wRe, wIm)
		} else {
			p.Forward(gRe, gIm)
			o.Forward(wRe, wIm)
		}
		if err := sameBits(what+" re", n, gRe, wRe); err != nil {
			return err
		}
		if err := sameBits(what+" im", n, gIm, wIm); err != nil {
			return err
		}
	}
	return nil
}

// realBits does the same for the real plan of length len(x): forward on x,
// inverse on an unrelated half-complex signal.
func realBits(rng *rand.Rand, trial int, p *RealPlan, o *oracleReal, x []float64) error {
	n, m := len(x), len(x)/2
	gRe, gIm := make([]float64, m+1), make([]float64, m+1)
	wRe, wIm := make([]float64, m+1), make([]float64, m+1)
	p.Forward(x, gRe, gIm)
	o.Forward(x, wRe, wIm)
	if err := sameBits("real forward re", n, gRe, wRe); err != nil {
		return err
	}
	if err := sameBits("real forward im", n, gIm, wIm); err != nil {
		return err
	}
	signal(rng, trial, wRe, wIm)
	got, want := make([]float64, n), make([]float64, n)
	p.Inverse(wRe, wIm, got)
	o.Inverse(wRe, wIm, want)
	return sameBits("real inverse", n, got, want)
}

func TestCompiledMatchesRecursiveOracle(t *testing.T) {
	for _, n := range oracleLengths {
		p, o := NewPlan(n), newOracle(n)
		if p.kind() != kindMixed {
			t.Fatalf("n=%d does not take the mixed-radix kernel", n)
		}
		// The real plan of length 2n runs on the same tables.
		rp, ro := NewRealPlan(2*n), newOracleReal(2*n)
		rng := rand.New(rand.NewSource(int64(n)))
		re, im := make([]float64, n), make([]float64, n)
		x := make([]float64, 2*n)
		var ins [][]float64 // every trial's re, im and x, in turn
		for trial := 0; trial < trials; trial++ {
			signal(rng, trial, re, im)
			if err := complexBits(p, o, re, im); err != nil {
				t.Fatal(err)
			}
			signal(rng, trial, x[:n], x[n:])
			if err := realBits(rng, trial, rp, ro, x); err != nil {
				t.Fatal(err)
			}
			ins = append(ins, slices.Clone(re), slices.Clone(im), slices.Clone(x))
		}
		if err := batchOracleBits(n, 9, ins, o, ro); err != nil {
			t.Fatal(err)
		}
	}
}

// batchOracleBits runs the trials' signals in ins through batch plans L
// lines at a time — the last batch holds what is left — and compares every
// line with the oracle: complex forward and inverse, real forward, and real
// inverse of the real forward's spectra.
func batchOracleBits(n, L int, ins [][]float64, o *oracle, ro *oracleReal) error {
	p, rp := NewBatchPlan(n, L), NewRealBatchPlan(2*n, L)
	for t0 := 0; t0 < len(ins); t0 += 3 * L {
		var cRe, cIm, x [][]float64
		for t := t0; t < min(len(ins), t0+3*L); t += 3 {
			cRe, cIm, x = append(cRe, ins[t]), append(cIm, ins[t+1]), append(x, ins[t+2])
		}
		k := len(x)
		fRe, fIm, iRe, iIm := interleave(cRe), interleave(cIm), interleave(cRe), interleave(cIm)
		p.ForwardBatch(fRe, fIm)
		p.InverseBatch(iRe, iIm)
		sRe, sIm, bx := make([]float64, k*(n+1)), make([]float64, k*(n+1)), make([][]float64, k)
		for l := range bx {
			bx[l] = make([]float64, 2*n)
		}
		rp.ForwardBatch(x, sRe, sIm)
		rp.InverseBatch(sRe, sIm, bx)
		for l := 0; l < k; l++ {
			wRe, wIm := slices.Clone(cRe[l]), slices.Clone(cIm[l])
			vRe, vIm := slices.Clone(cRe[l]), slices.Clone(cIm[l])
			o.Forward(wRe, wIm)
			o.Inverse(vRe, vIm)
			gRe, gIm, gx := make([]float64, n+1), make([]float64, n+1), make([]float64, 2*n)
			ro.Forward(x[l], gRe, gIm)
			ro.Inverse(line(sRe, k, l), line(sIm, k, l), gx)
			for _, err := range []error{
				sameBits("batch forward re", n, line(fRe, k, l), wRe),
				sameBits("batch forward im", n, line(fIm, k, l), wIm),
				sameBits("batch inverse re", n, line(iRe, k, l), vRe),
				sameBits("batch inverse im", n, line(iIm, k, l), vIm),
				sameBits("batch real forward re", 2*n, line(sRe, k, l), gRe),
				sameBits("batch real forward im", 2*n, line(sIm, k, l), gIm),
				sameBits("batch real inverse", 2*n, bx[l], gx),
			} {
				if err != nil {
					return fmt.Errorf("batch of %d, line %d: %w", k, l, err)
				}
			}
		}
	}
	return nil
}

// FuzzMixedRadixBits lets the fuzzer pick the length and the raw bits of the
// input.  Values that are, or could sum to, infinities and NaNs are skipped:
// which operand's NaN payload survives an add is the instruction selector's
// choice, not the kernel's.
func FuzzMixedRadixBits(f *testing.F) {
	for _, n := range oracleLengths {
		rng := rand.New(rand.NewSource(int64(n)))
		re, im := make([]float64, n), make([]float64, n)
		signal(rng, trials, re, im)
		raw := make([]byte, 0, 16*n)
		for i := range re {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(re[i]))
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(im[i]))
		}
		f.Add(uint16(n-2), raw)
	}
	f.Fuzz(func(t *testing.T, length uint16, raw []byte) {
		n := int(length)%360 + 2
		if !smooth(n) {
			t.Skip()
		}
		re, im := make([]float64, n), make([]float64, n)
		for i := 0; i < n && 16*i+16 <= len(raw); i++ {
			re[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:]))
			im[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
			if !(math.Abs(re[i]) <= 1e300 && math.Abs(im[i]) <= 1e300) {
				t.Skip()
			}
		}
		if err := complexBits(NewPlan(n), newOracle(n), re, im); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzRealPlanBits does the same for the real plan, which gathers straight
// into its half plan's scratch and folds the inverse's normalisation into its
// interleave: the fuzzer picks the half length and the raw bits of x for
// Forward and of the spectrum for Inverse.
func FuzzRealPlanBits(f *testing.F) {
	for _, m := range oracleLengths {
		rng := rand.New(rand.NewSource(int64(m)))
		vals := make([]float64, 4*m+2)
		signal(rng, trials, vals[:2*m+1], vals[2*m+1:])
		raw := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		f.Add(uint16(m-2), raw)
	}
	f.Fuzz(func(t *testing.T, length uint16, raw []byte) {
		m := int(length)%360 + 2
		if !smooth(m) {
			t.Skip()
		}
		n := 2 * m
		vals := make([]float64, 2*n+2) // x, then re and im of the spectrum
		for i := 0; i < len(vals) && 8*i+8 <= len(raw); i++ {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			if !(math.Abs(vals[i]) <= 1e300) {
				t.Skip()
			}
		}
		x, re, im := vals[:n], vals[n:n+m+1], vals[n+m+1:]
		p, o := NewRealPlan(n), newOracleReal(n)
		gRe, gIm := make([]float64, m+1), make([]float64, m+1)
		wRe, wIm := make([]float64, m+1), make([]float64, m+1)
		p.Forward(x, gRe, gIm)
		o.Forward(x, wRe, wIm)
		got, want := make([]float64, n), make([]float64, n)
		p.Inverse(re, im, got)
		o.Inverse(re, im, want)
		for _, err := range []error{
			sameBits("real forward re", n, gRe, wRe),
			sameBits("real forward im", n, gIm, wIm),
			sameBits("real inverse", n, got, want),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestStageStreamsOmitUnitTerm checks each compiled stage's twiddle stream
// against the full table it is read from: it holds 2*m*f*(f-1) values, the
// r >= 1 twiddles in [q][s][r] order, and every r = 0 entry it leaves out is
// exactly W^0 = (1, -0) — the term the stage bodies replace by adding +0.
func TestStageStreamsOmitUnitTerm(t *testing.T) {
	one, negZero := math.Float64bits(1), math.Float64bits(math.Copysign(0, -1))
	for _, n := range oracleLengths {
		full := newOracle(n) // its twRe, twIm are the table W_n^j
		for _, st := range newTables(n).stages {
			f, m := st.f, st.m
			if len(st.tw) != 2*m*f*(f-1) {
				t.Fatalf("n=%d stage f=%d m=%d: stream holds %d values, want %d", n, f, m, len(st.tw), 2*m*f*(f-1))
			}
			tw := st.tw
			for q := 0; q < m; q++ {
				for s := 0; s < f; s++ {
					for r := 0; r < f; r++ {
						idx := (r * (q + m*s)) % (f * m) * (n / (f * m))
						wr, wi := math.Float64bits(full.twRe[idx]), math.Float64bits(full.twIm[idx])
						if r == 0 {
							if wr != one || wi != negZero {
								t.Fatalf("n=%d f=%d m=%d: dropped W^0 is (%g, %g), not (1, -0)", n, f, m, full.twRe[idx], full.twIm[idx])
							}
							continue
						}
						if math.Float64bits(tw[0]) != wr || math.Float64bits(tw[1]) != wi {
							t.Fatalf("n=%d f=%d m=%d: stream entry (q=%d s=%d r=%d) = (%g, %g), table (%g, %g)",
								n, f, m, q, s, r, tw[0], tw[1], full.twRe[idx], full.twIm[idx])
						}
						tw = tw[2:]
					}
				}
			}
		}
	}
}

// TestSharedTablesConcurrentPlans has 240 goroutines — one simulated rank
// each on the paper's mesh — build a plan of one length at once and transform
// their own signals.  Every one must produce the oracle's bits; under -race
// it also proves nobody writes the tables they share.
func TestSharedTablesConcurrentPlans(t *testing.T) {
	const ranks, n = 240, 72
	clear(shared)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			re, im := make([]float64, n), make([]float64, n)
			x := make([]float64, 2*n)
			o, ro := newOracle(n), newOracleReal(2*n)
			<-start
			p, rp := NewPlan(n), NewRealPlan(2*n)
			for trial := 0; trial < 5; trial++ {
				signal(rng, trial, re, im)
				if err := complexBits(p, o, re, im); err != nil {
					t.Errorf("rank %d: %v", r, err)
					return
				}
				signal(rng, trial, x[:n], x[n:])
				if err := realBits(rng, trial, rp, ro, x); err != nil {
					t.Errorf("rank %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	close(start)
	wg.Wait()
}
