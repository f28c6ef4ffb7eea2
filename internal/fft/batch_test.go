package fft

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
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

// batchPlans are the plans batchBits compares for half length m: batch
// plans, complex of length m and real of length 2m, and their single-line
// counterparts.
type batchPlans struct {
	cp, one  *Plan
	rp, rone *RealPlan
}

// newBatchPlans builds the plans of half length m, the batch plans for up
// to lines lines.
func newBatchPlans(m, lines int) batchPlans {
	return batchPlans{cp: NewBatchPlan(m, lines), one: NewPlan(m),
		rp: NewRealBatchPlan(2*m, lines), rone: NewRealPlan(2 * m)}
}

// batchBits transforms L lines of half length m as one batch, through pl's
// complex plan of length m and real plan of length 2m, and each line on its
// own through the single-line plans, and reports the first bit that
// differs.  vals holds, line by line, the complex input, the real input and
// the half-complex spectrum the inverses start from: 6m+2 values a line.
func batchBits(pl batchPlans, m, L int, vals []float64) error {
	n, h := 2*m, m+1
	cRe, cIm, x, sRe, sIm := make([][]float64, L), make([][]float64, L), make([][]float64, L), make([][]float64, L), make([][]float64, L)
	for l := range cRe {
		v := vals[l*(6*m+2):]
		cRe[l], cIm[l], x[l], sRe[l], sIm[l] = v[:m], v[m:2*m], v[2*m:4*m], v[4*m:4*m+h], v[4*m+h:4*m+2*h]
	}
	cp, rp, one, rone := pl.cp, pl.rp, pl.one, pl.rone
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
			if err := batchBits(newBatchPlans(m, L), m, L, vals); err != nil {
				t.Fatalf("m=%d L=%d: %v", m, L, err)
			}
		}
	}
}

// FuzzBatchBits lets the fuzzer pick the half length (1 to 128: mixed-radix
// and Bluestein lengths), the line count (1 to 64), the trial that fills
// every line's inputs (signal's constant fills of zeros and denormals, or
// values drawn from the fuzzed seed) and patches of raw bits, each 10 bytes
// putting one value's bits at a fuzzed position; bytes past the 8th patch
// are ignored.  So the input stays small whatever m and L are: the engine's
// minimiser runs the target about once per input byte, and raw bits for
// every value of a batch (up to 400 KB) stalled it for the whole fuzz time.
// Values that could sum to infinities are skipped, as in FuzzMixedRadixBits.
// Plans are kept per m across calls, their batch plans built for 64 lines:
// the process-wide table cache holds 16 lengths, so most calls would
// otherwise rebuild their tables.
func FuzzBatchBits(f *testing.F) {
	var mu sync.Mutex // held for a whole call: the plans hold scratch
	plans := map[int]batchPlans{}
	for i, m := range batchHalves {
		// Gaussian draws salted with awkward values.
		f.Add(uint16(m-1), uint8(i%3), uint16(tiny*tiny), int64(m), []byte(nil))
		// A constant fill of -0 with one denormal patched in.
		patch := binary.LittleEndian.AppendUint16(nil, uint16(i))
		patch = binary.LittleEndian.AppendUint64(patch, math.Float64bits(5e-324))
		f.Add(uint16(m-1), uint8(i), uint16(tiny+1), int64(0), patch)
	}
	f.Fuzz(func(t *testing.T, half uint16, lines uint8, trial uint16, seed int64, patch []byte) {
		m, L := int(half)%128+1, int(lines)%64+1
		mu.Lock()
		defer mu.Unlock()
		pl, ok := plans[m]
		if !ok {
			pl = newBatchPlans(m, 64)
			plans[m] = pl
		}
		vals := make([]float64, L*(6*m+2))
		signal(rand.New(rand.NewSource(seed)), int(trial)%trials, vals[:len(vals)/2], vals[len(vals)/2:])
		for patch = patch[:min(len(patch), 80)]; len(patch) >= 10; patch = patch[10:] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(patch[2:]))
			if !(math.Abs(v) <= 1e300) {
				t.Skip()
			}
			vals[int(binary.LittleEndian.Uint16(patch))%len(vals)] = v
		}
		if err := batchBits(pl, m, L, vals); err != nil {
			t.Fatalf("m=%d L=%d: %v", m, L, err)
		}
	})
}
