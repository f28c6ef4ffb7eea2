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

// forcePairGo clears pairAsm until the test ends, so walk5Pair runs its
// Go form.
func forcePairGo(t testing.TB) {
	was := pairAsm
	pairAsm = false
	t.Cleanup(func() { pairAsm = was })
}

// sameBits reports whether two outputs have the same bits, any NaN
// matching any NaN: IEEE leaves a NaN's payload open.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// FuzzConvolvePairBits checks convolvePair, whose groups of five outputs or
// fewer run walk5PairAVX, against two convolveSegments calls, bit for bit.
// The fuzzer picks the circle length n (2 to 360), up to 39 cut points, the
// segment and the span, as FuzzConvolveSegmentsBits does, and the raw bits
// of two lines' points and coefficients: every value is taken, ±0, ±Inf,
// subnormals and NaN included.  Each kernel row's spare capacity is NaN.
func FuzzConvolvePairBits(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for _, sh := range []struct {
		n    int
		cuts []int
	}{
		{144, []int{5, 10, 14, 19, 24, 29, 34, 38, 43, 48, 53, 58, 62, 67, 72}},
		{144, nil}, {2, []int{1}}, {25, []int{1, 2, 9, 17, 24}}, {360, []int{7, 100, 351}},
	} {
		split := []byte{}
		for _, cut := range sh.cuts {
			split = binary.LittleEndian.AppendUint16(split, uint16(cut-1))
		}
		raw := []byte{}
		for i := 0; i < 4*sh.n; i++ {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(rng.NormFloat64()))
		}
		f.Add(uint16(sh.n-2), split, uint8(len(sh.cuts)/2), uint16(0), raw)
	}
	f.Fuzz(func(t *testing.T, length uint16, split []byte, owner uint8, span uint16, raw []byte) {
		if !pairAsm {
			t.Skip("no AVX2: walk5PairAVX does not run")
		}
		n := int(length)%359 + 2
		var cuts []int
		for i := 0; i+2 <= len(split) && len(cuts) < 39; i += 2 {
			cuts = append(cuts, 1+int(binary.LittleEndian.Uint16(split[i:]))%(n-1))
		}
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		vals := make([]float64, 4*n)
		for i := 0; i < len(vals) && 8*i+8 <= len(raw); i++ {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		col := int(owner) % (len(cuts) + 1)
		var (
			c, own, want, got [2][]float64
			walk              [2][][]float64
			lo, m             int
		)
		for l := range c {
			parts, _ := segmentsOf(vals[2*l*n:(2*l+1)*n:(2*l+1)*n], cuts)
			c[l] = append(make([]float64, 0, n+kernelPad), vals[(2*l+1)*n:(2*l+2)*n]...)
			spare := c[l][n : n+kernelPad]
			for i := range spare {
				spare[i] = math.NaN()
			}
			own[l], walk[l] = parts[col], walkFor(parts, col)
			w := len(own[l])
			lo = int(span&0xff) % w
			m = w - lo - int(span>>8)%(w-lo)
			want[l], got[l] = make([]float64, m), make([]float64, m)
			convolveSegments(c[l], own[l], lo, walkFor(parts, col), want[l])
		}
		convolvePair(c, own, lo, walk, got)
		for l := range got {
			for i := range got[l] {
				if !sameBits(got[l][i], want[l][i]) {
					t.Fatalf("n=%d cuts=%v segment %d line %d point %d: got %v (%#x), convolveSegments gives %v (%#x)",
						n, cuts, col, l, lo+i, got[l][i], math.Float64bits(got[l][i]), want[l][i], math.Float64bits(want[l][i]))
				}
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
// and runs convolveSegments, as it does now.  For w = 4 and 5, the widths
// of the 8x30 mesh, "pair" times the walk of two such lines, each with its
// own kernel, through walk5Pair's assembly, and "pair-go" through its Go
// form, two walk5 calls: the assembly is kept only while pair is at least
// twice as fast.
func BenchmarkConvolveLine(b *testing.B) {
	const n = 144
	rng := rand.New(rand.NewSource(1))
	f, c := make([]float64, n), Coefficients(DampingRow(n, 80*math.Pi/180, Strong.CritLat()))
	f1, c1 := make([]float64, n), Coefficients(DampingRow(n, 70*math.Pi/180, Strong.CritLat()))
	for i := range f {
		f[i], f1[i] = rng.NormFloat64(), rng.NormFloat64()
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
		if w != 4 && w != 5 {
			continue
		}
		// The walks of the segment's one group, as convolvePair sets them.
		parts1, _ := segmentsOf(f1, cuts)
		walks, cw := [2][][]float64{walkFor(parts, col), walkFor(parts1, col)}, [2][]float64{padKernel(c), padKernel(c1)}
		for l, own := range [2][]float64{parts[col], parts1[col]} {
			walks[l][0], walks[l][len(parts)] = own[:1], own[w:]
		}
		var s0, s1 [8]float64
		for _, form := range []string{"pair-go", "pair"} {
			b.Run(fmt.Sprintf("w=%d/%s", w, form), func(b *testing.B) {
				if form == "pair-go" {
					forcePairGo(b)
				} else if !pairAsm {
					b.Skip("no AVX2: walk5PairAVX does not run")
				}
				for it := 0; it < b.N; it++ {
					walk5Pair(cw, walks, &s0, &s1)
				}
			})
		}
	}
}
