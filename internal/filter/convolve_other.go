//go:build !amd64

package filter

// pairAsm is never set off amd64: walk5Pair runs its Go form.
var pairAsm = false

// walk5PairAVX exists only on amd64.
func walk5PairAVX(c0, c1 []float64, walk0, walk1 [][]float64, s0, s1 *[8]float64) {
	panic("filter: walk5PairAVX off amd64")
}
