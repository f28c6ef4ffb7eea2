package comm

// An oracle independent of both board paths: on a flat network with every
// member arriving at clock 0, the complete collectives and the tree allgather
// end at the α–β clock a closed form gives.  The model's constants are powers
// of two, so every sum the simulator forms is exact and the clocks must match
// to the bit.  A bug the compiled plan and the generic path share passes the
// differential tests, but not this.

import (
	"math"
	"testing"

	"agcm/internal/sim"
)

// abModel is an α–β network with per-message overheads os and or.
type abModel struct{ alpha, beta, os, or float64 }

func (m abModel) FlopSeconds(n float64) float64         { return 0 }
func (m abModel) MemSeconds(n float64) float64          { return 0 }
func (m abModel) SendOverheadSeconds(bytes int) float64 { return m.os }
func (m abModel) RecvOverheadSeconds(bytes int) float64 { return m.or }
func (m abModel) NetworkSeconds(bytes int) float64      { return m.alpha + m.beta*float64(bytes) }

// treeBcastClocks returns each rank's clock after BcastInto from rank 0 of a
// bytes-long message, given each rank's clock before it.  Rank v's parent is
// v less its lowest set bit; a parent sends to its children in decreasing
// distance, each send costing os, once it has received.
func treeBcastClocks(m abModel, start []float64, bytes int) []float64 {
	n := len(start)
	ready := append([]float64(nil), start...) // when each rank holds the data
	sends := make([]int, n)                   // sends each rank has made so far
	for dist := nextPow2(n); dist >= 1; dist /= 2 {
		for v := 0; v+dist < n; v += 2 * dist {
			sends[v]++
			arrive := ready[v] + float64(sends[v])*m.os + m.NetworkSeconds(bytes)
			ready[v+dist] = math.Max(start[v+dist], arrive) + m.or
		}
	}
	out := make([]float64, n)
	for v := range out {
		out[v] = ready[v] + float64(sends[v])*m.os
	}
	return out
}

// TestCollectiveClocksClosedForm: ring AllgathervInto, AllgathervTree,
// AlltoallvInto and Barrier over 2, 3, 5, 8 and 30 ranks, through the
// compiled plan and the generic path, each contribution L floats:
//
//	ring:       (n-1)·(os + α + β·8L + or) on every rank
//	all-to-all: (n-1)·os + max((n-1)·or, α + β·8L + or) on every rank (os > or)
//	barrier:    ⌈log₂ n⌉·(os + α + or) on every rank
//	tree:       a gather to rank 0 (root at os + α + β·8L + (n-1)·or, the
//	            others at os), then the two binomial broadcasts of
//	            treeBcastClocks, the n lengths and the n·L values.
func TestCollectiveClocksClosedForm(t *testing.T) {
	m := abModel{alpha: 1.0 / 1024, beta: 1.0 / (1 << 20), os: 1.0 / 4096, or: 1.0 / 8192}
	const L = 3
	net := m.NetworkSeconds(8 * L)
	for _, n := range []int{2, 3, 5, 8, 30} {
		fn := float64(n)
		rounds := math.Ceil(math.Log2(fn))
		every := func(v float64) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = v
			}
			return out
		}
		gathered := every(m.os)
		gathered[0] = m.os + net + (fn-1)*m.or
		lengths := treeBcastClocks(m, gathered, 8*n)
		cases := []struct {
			name string
			want []float64
			op   func(c *Comm, data []float64, out [][]float64)
		}{
			{"ring", every((fn - 1) * (m.os + net + m.or)), func(c *Comm, data []float64, out [][]float64) { c.AllgathervInto(data, out) }},
			{"all-to-all", every((fn-1)*m.os + math.Max((fn-1)*m.or, net+m.or)), func(c *Comm, data []float64, out [][]float64) {
				parts := make([][]float64, n)
				for i := range parts {
					parts[i] = data
				}
				c.AlltoallvInto(parts, out)
			}},
			{"barrier", every(rounds * (m.os + m.alpha + m.or)), func(c *Comm, _ []float64, _ [][]float64) { c.Barrier() }},
			{"tree", treeBcastClocks(m, lengths, 8*n*L), func(c *Comm, data []float64, _ [][]float64) { c.AllgathervTree(data) }},
		}
		for _, tc := range cases {
			for _, generic := range []bool{false, true} {
				mach := sim.New(n, m)
				if generic {
					mach.SetFaultHook(passHook{})
				}
				res, err := runWithin(t, mach, func(p *sim.Proc) error {
					tc.op(World(p), []float64{1, 2, 3}, make([][]float64, n))
					return nil
				})
				if err != nil {
					t.Fatalf("%s n=%d: %v", tc.name, n, err)
				}
				for r, got := range res.Clocks {
					if got != tc.want[r] {
						t.Fatalf("%s n=%d generic=%v: rank %d ends at %v, closed form %v", tc.name, n, generic, r, got, tc.want[r])
					}
				}
			}
		}
	}
}
