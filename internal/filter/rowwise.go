package filter

import (
	"agcm/internal/comm"
	"agcm/internal/grid"
)

// RowwiseFFT implements the first of the two FFT parallelizations Section
// 3.2 considers — "develop a parallel one dimensional FFT procedure for
// processors on the same rows" — the approach the authors analysed and
// rejected in favour of the data transpose.  Each mesh row assembles a
// variable's filtered slab, every layer at once, with one tree circle
// gather (see circleGather), and every processor then transforms the full
// latitude circles redundantly, keeping only its own longitude segment.
// Fewer, larger messages than the transpose; duplicate arithmetic and no
// load balancing — the measured communication ablation shows why the paper
// chose the other route.
type RowwiseFFT struct {
	cart *comm.Cart2D
	g    circleGather
	rf   *rowFilter
	resp [2]*response // the grid's shared damping rows, by kind

	// One complete circle: a steady-state Apply allocates only what the
	// tree gather returns.
	full []float64
}

// NewRowwiseFFT builds the rejected-alternative filter for this rank.
func NewRowwiseFFT(cart *comm.Cart2D, spec grid.Spec, local grid.Local) *RowwiseFFT {
	return &RowwiseFFT{cart: cart, g: newCircleGather(cart, spec, local, Tree),
		rf: newRowFilter(spec.Nlon), resp: responses(cart.World.Proc(), spec),
		full: make([]float64, spec.Nlon)}
}

// Apply implements Parallel: one gather per variable slab, redundant
// full-row FFTs, write back own segments.
func (f *RowwiseFFT) Apply(vars []Variable) {
	g, p := &f.g, f.cart.World.Proc()
	nl, w, lo := g.spec.Nlayers, g.local.Nlon(), g.offs[f.cart.MyCol]
	lineFlops := LineFlops(g.spec.Nlon)
	for _, v := range vars {
		if !g.filter(v.Kind) {
			continue
		}
		g.gather(v.Field, 0, nl)
		for li, localJ := range g.rows {
			damp := f.resp[v.Kind].damp[g.local.GlobalLat(localJ)]
			for k := 0; k < nl; k++ {
				g.circle(li*nl+k, f.full)
				f.rf.apply(damp, f.full)
				// Redundant arithmetic: every rank pays the full-row
				// transform cost.
				p.Compute(lineFlops)
				v.Field.SetRowSlice(localJ, k, f.full[lo:lo+w])
			}
		}
	}
}
