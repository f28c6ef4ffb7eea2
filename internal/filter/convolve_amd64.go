package filter

// walk5PairAVX is walk5Pair's AVX kernel.  For each line it keeps outputs
// 0-3 in one 4-lane accumulator and output 4 in a scalar; per point it
// broadcasts x, multiplies it by the coefficient window and adds, with no
// fused multiply-add.  So each lane does walk5's operations for its output
// in walk5's order and gets walk5's bits; only a NaN's payload may differ.
//
//go:noescape
func walk5PairAVX(c0, c1 []float64, walk0, walk1 [][]float64, s0, s1 *[8]float64)

// cpuid and xgetbv read the processor's feature flags and the operating
// system's enabled register state (XCR0).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// pairAsm selects walk5PairAVX; tests clear it to force the Go pair.
var pairAsm = hasAVX2()

// hasAVX2 reports whether the processor has AVX2 and the operating system
// saves the YMM registers.  It is checked at run time, not by GOAMD64, so
// a default (v1) build gets the kernel too.
func hasAVX2() bool {
	leaves, _, _, _ := cpuid(0, 0)
	if leaves < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}
