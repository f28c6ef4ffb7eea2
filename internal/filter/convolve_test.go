package filter

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// segmentsOf cuts circle f at the ascending cut points into the segments
// of a mesh row, one line each, and returns them with their offsets.
func segmentsOf(f []float64, cuts []int) (parts [][]float64, offs []int) {
	lo := 0
	for _, hi := range append(cuts, len(f)) {
		parts, offs = append(parts, f[lo:hi]), append(offs, lo)
		lo = hi
	}
	return parts, offs
}

// walkFor returns convolveSegments' walk for segment col of parts: scratch
// ends around the other segments from col-1 down round to col+1.
func walkFor(parts [][]float64, col int) [][]float64 {
	walk := make([][]float64, len(parts)+1)
	for t := 1; t < len(parts); t++ {
		walk[t] = parts[(col-t+len(parts))%len(parts)]
	}
	return walk
}

// padded returns f extended to the circle convolveExt reads.
func padded(f []float64) []float64 {
	ext := make([]float64, len(f)+convPad)
	for q := range ext {
		ext[q] = f[q%len(f)]
	}
	return ext
}

// FuzzConvolveSegmentsBits checks convolveSegments against convolveExt on
// the assembled, padded circle, bit for bit.  The fuzzer picks the circle
// length n (2 to 360), up to 39 cut points (so 1 to 40 segments, each at
// least one point wide), the segment convolved and the span of it, and the
// raw bits of the coefficients and the points; values beyond ±1e300 and
// non-finite values are skipped.  The coefficient row's spare capacity is
// NaN, so a lane that leaked into an output would show.
func FuzzConvolveSegmentsBits(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range []struct {
		n    int
		cuts []int
	}{
		{144, nil}, {144, []int{5, 10, 14, 19, 24, 29, 34, 38, 43, 48, 53, 58, 62, 67, 72}},
		{144, []int{48, 96}}, {2, []int{1}}, {25, []int{1, 2, 9, 17, 24}}, {360, []int{7, 100, 351}},
	} {
		split := []byte{}
		for _, cut := range sh.cuts {
			split = binary.LittleEndian.AppendUint16(split, uint16(cut-1))
		}
		raw := []byte{}
		for i := 0; i < 2*sh.n; i++ {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(rng.NormFloat64()))
		}
		f.Add(uint16(sh.n-2), split, uint8(len(sh.cuts)/2), uint16(0), raw)
	}
	f.Fuzz(func(t *testing.T, length uint16, split []byte, owner uint8, span uint16, raw []byte) {
		n := int(length)%359 + 2
		var cuts []int
		for i := 0; i+2 <= len(split) && len(cuts) < 39; i += 2 {
			cuts = append(cuts, 1+int(binary.LittleEndian.Uint16(split[i:]))%(n-1))
		}
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		vals := make([]float64, 2*n+kernelPad)
		for i := 0; i < 2*n && 8*i+8 <= len(raw); i++ {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			if !(math.Abs(vals[i]) <= 1e300) {
				t.Skip()
			}
		}
		circle, c := vals[:n:n], vals[n:2*n]
		for i := range vals[2*n:] {
			vals[2*n+i] = math.NaN()
		}
		parts, offs := segmentsOf(circle, cuts)
		col := int(owner) % len(parts)
		w := len(parts[col])
		lo := int(span&0xff) % w
		m := w - lo - int(span>>8)%(w-lo)

		want, got := make([]float64, m), make([]float64, m)
		convolveExt(c, padded(circle), want, offs[col]+lo)
		convolveSegments(c, parts[col], lo, walkFor(parts, col), got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d cuts=%v segment %d point %d: got %v, convolveExt gives %v",
					n, cuts, col, lo+i, got[i], want[i])
			}
		}
	})
}

// TestApplyRowConvolutionWraps checks the whole-row entry point on spans
// that run past the end of the row and wrap round to its start.
func TestApplyRowConvolutionWraps(t *testing.T) {
	const n = 30
	rng := rand.New(rand.NewSource(5))
	row, c := make([]float64, n), make([]float64, n)
	for i := range row {
		row[i], c[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	for _, sp := range [][2]int{{0, n}, {25, 11}, {3, n}, {29, 1}} {
		want, got := make([]float64, sp[1]), make([]float64, sp[1])
		convolveExt(c, padded(row), want, sp[0])
		ApplyRowConvolution(c, row, got, sp[0])
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("span %v point %d: got %v, convolveExt gives %v", sp, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkConvolveLine times one line of a 144-point circle cut into
// segments of w points (the last one shorter when w does not divide 144),
// convolving a middle segment: "circle" reassembles and pads the circle
// and runs convolveExt, as the filter once did; "segments" fills the walk
// and runs convolveSegments, as it does now.
func BenchmarkConvolveLine(b *testing.B) {
	const n = 144
	rng := rand.New(rand.NewSource(1))
	f, c := make([]float64, n), Coefficients(DampingRow(n, 80*math.Pi/180, Strong.CritLat()))
	for i := range f {
		f[i] = rng.NormFloat64()
	}
	for _, w := range []int{1, 2, 3, 4, 5, 6, 7, 8, 18, 36, 144} {
		var cuts []int
		for cut := w; cut < n; cut += w {
			cuts = append(cuts, cut)
		}
		parts, offs := segmentsOf(f, cuts)
		col := len(parts) / 2
		dst, full, walk := make([]float64, len(parts[col])), make([]float64, n+convPad), walkFor(parts, col)
		b.Run(fmt.Sprintf("w=%d/circle", w), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				for cl, part := range parts {
					copy(full[offs[cl]:], part)
				}
				for q := 0; q < convPad; q++ {
					full[n+q] = full[q%n]
				}
				convolveExt(c, full, dst, offs[col])
			}
		})
		b.Run(fmt.Sprintf("w=%d/segments", w), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				for t, cl := 1, col; t < len(parts); t++ {
					if cl--; cl < 0 {
						cl = len(parts) - 1
					}
					walk[t] = parts[cl]
				}
				convolveSegments(c, parts[col], 0, walk, dst)
			}
		})
	}
}
