package fft

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// interleave stores lines[l][j] at j*len(lines)+l.
func interleave(lines [][]float64) []float64 {
	L := len(lines)
	out := make([]float64, L*len(lines[0]))
	for l, line := range lines {
		for j, v := range line {
			out[j*L+l] = v
		}
	}
	return out
}

// line returns line l of the L lines interleaved in x.
func line(x []float64, L, l int) []float64 {
	out := make([]float64, len(x)/L)
	for j := range out {
		out[j] = x[j*L+l]
	}
	return out
}

// batchBits transforms L lines of half length m as one batch, through the
// complex plan of length m and the real plan of length 2m, and each line on
// its own through single-line plans, and reports the first bit that
// differs.  vals holds, line by line, the complex input, the real input and
// the half-complex spectrum the inverses start from: 6m+2 values a line.
func batchBits(m, L int, vals []float64) error {
	n, h := 2*m, m+1
	cRe, cIm, x, sRe, sIm := make([][]float64, L), make([][]float64, L), make([][]float64, L), make([][]float64, L), make([][]float64, L)
	for l := range cRe {
		v := vals[l*(6*m+2):]
		cRe[l], cIm[l], x[l], sRe[l], sIm[l] = v[:m], v[m:2*m], v[2*m:4*m], v[4*m:4*m+h], v[4*m+h:4*m+2*h]
	}
	cp, rp := NewBatchPlan(m, L), NewRealBatchPlan(n, L)
	one, rone := NewPlan(m), NewRealPlan(n)
	bRe, bIm := interleave(cRe), interleave(cIm)
	iRe, iIm := interleave(cRe), interleave(cIm)
	cp.ForwardBatch(bRe, bIm)
	cp.InverseBatch(iRe, iIm)
	fRe, fIm := make([]float64, L*h), make([]float64, L*h)
	rp.ForwardBatch(x, fRe, fIm)
	bx := make([][]float64, L)
	for l := range bx {
		bx[l] = make([]float64, n)
	}
	rp.InverseBatch(interleave(sRe), interleave(sIm), bx)
	for l := 0; l < L; l++ {
		wRe, wIm := append([]float64(nil), cRe[l]...), append([]float64(nil), cIm[l]...)
		vRe, vIm := append([]float64(nil), cRe[l]...), append([]float64(nil), cIm[l]...)
		one.Forward(wRe, wIm)
		one.Inverse(vRe, vIm)
		gRe, gIm := make([]float64, h), make([]float64, h)
		rone.Forward(x[l], gRe, gIm)
		gx := make([]float64, n)
		rone.Inverse(sRe[l], sIm[l], gx)
		for _, err := range []error{
			sameBits("batch forward re", m, line(bRe, L, l), wRe),
			sameBits("batch forward im", m, line(bIm, L, l), wIm),
			sameBits("batch inverse re", m, line(iRe, L, l), vRe),
			sameBits("batch inverse im", m, line(iIm, L, l), vIm),
			sameBits("batch real forward re", n, line(fRe, L, l), gRe),
			sameBits("batch real forward im", n, line(fIm, L, l), gIm),
			sameBits("batch real inverse", n, bx[l], gx),
		} {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// batchHalves are half lengths of both kernels: mixed radix on powers of
// two, on mixes with and without a generic stage, and Bluestein.
var batchHalves = []int{1, 2, 8, 32, 3, 36, 72, 45, 74, 7 * 11, 97}

// TestBatchMatchesSingleLine runs every kernel's batches of 1 to 64 lines
// against the lines one at a time, bit for bit.
func TestBatchMatchesSingleLine(t *testing.T) {
	for _, m := range batchHalves {
		for _, L := range []int{1, 2, 3, 5, 17, 64} {
			rng := rand.New(rand.NewSource(int64(m*100 + L)))
			vals := make([]float64, L*(6*m+2))
			// A drawn trial: Gaussian values, a quarter of them awkward.
			signal(rng, tiny*tiny, vals[:len(vals)/2], vals[len(vals)/2:])
			if err := batchBits(m, L, vals); err != nil {
				t.Fatalf("m=%d L=%d: %v", m, L, err)
			}
		}
	}
}

// FuzzBatchBits lets the fuzzer pick the half length (1 to 128: mixed-radix
// and Bluestein lengths, each of whose lines stays cheap enough
// to minimise), the line count (1 to 64) and the raw bits of every line's
// inputs; values that could sum to infinities are skipped, as in
// FuzzMixedRadixBits.
func FuzzBatchBits(f *testing.F) {
	for i, m := range batchHalves {
		rng := rand.New(rand.NewSource(int64(m)))
		vals := make([]float64, 3*(6*m+2))
		signal(rng, trials, vals[:len(vals)/2], vals[len(vals)/2:])
		raw := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		f.Add(uint16(m-1), uint8(i%3), raw)
	}
	f.Fuzz(func(t *testing.T, half uint16, lines uint8, raw []byte) {
		m, L := int(half)%128+1, int(lines)%64+1
		vals := make([]float64, L*(6*m+2))
		for i := 0; i < len(vals) && 8*i+8 <= len(raw); i++ {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			if !(math.Abs(vals[i]) <= 1e300) {
				t.Skip()
			}
		}
		if err := batchBits(m, L, vals); err != nil {
			t.Fatalf("m=%d L=%d: %v", m, L, err)
		}
	})
}
