package filter

import (
	"agcm/internal/comm"
	"agcm/internal/grid"
)

// RowwiseFFT implements the first of the two FFT parallelizations Section
// 3.2 considers — "develop a parallel one dimensional FFT procedure for
// processors on the same rows" — the approach the authors analysed and
// rejected in favour of the data transpose.  Each mesh row assembles its
// filtered slab with a recursive-doubling allgather (the O(log P)-message,
// larger-volume pattern of the paper's analysis) and every processor then
// transforms the full latitude circles redundantly, keeping only its own
// longitude segment.  Fewer, larger messages than the transpose; duplicate
// arithmetic and no load balancing — the measured communication ablation
// shows why the paper chose the other route.
type RowwiseFFT struct {
	cart  *comm.Cart2D
	spec  grid.Spec
	local grid.Local
	rf    *rowFilter
	resp  [2]*response // the grid's shared damping rows, by kind

	// Persistent scratch, as in Convolution: a steady-state Apply allocates
	// only what AllgathervTree returns.
	full, buf, row []float64
	rows           []int
	widths, offs   []int // the mesh row's longitude segments
}

// NewRowwiseFFT builds the rejected-alternative filter for this rank.
func NewRowwiseFFT(cart *comm.Cart2D, spec grid.Spec, local grid.Local) *RowwiseFFT {
	f := &RowwiseFFT{
		cart: cart, spec: spec, local: local,
		rf: newRowFilter(spec.Nlon), resp: responses(cart.World.Proc(), spec),
	}
	f.full = make([]float64, spec.Nlon)
	f.widths, f.offs = lonSegments(local.Decomp, cart.Px)
	return f
}

// Apply implements Parallel: one allgather per variable slab, redundant
// full-row FFTs, write back own segments.
func (f *RowwiseFFT) Apply(vars []Variable) {
	n := f.spec.Nlon
	w := f.local.Nlon()
	lo, _ := f.local.Decomp.LonRange(f.cart.MyCol)
	full, widths, offs := f.full, f.widths, f.offs
	lineFlops := LineFlops(n)

	for _, v := range vars {
		// Local filtered rows of this variable (same on the whole mesh
		// row); equatorial mesh rows stay idle.
		f.rows = f.rows[:0]
		for localJ := 0; localJ < f.local.Nlat(); localJ++ {
			if IsFiltered(f.spec, v.Kind, f.local.GlobalLat(localJ)) {
				f.rows = append(f.rows, localJ)
			}
		}
		if len(f.rows) == 0 {
			continue
		}
		// Pack all (row, layer) segments, gather the slab once.
		f.buf = f.buf[:0]
		for _, localJ := range f.rows {
			for k := 0; k < f.spec.Nlayers; k++ {
				f.row = v.Field.RowSlice(localJ, k, f.row)
				f.buf = append(f.buf, f.row...)
			}
		}
		parts := f.cart.Row.AllgathervTree(f.buf)
		// Transform every line redundantly; keep my segment.
		for li, localJ := range f.rows {
			damp := f.resp[v.Kind].damp[f.local.GlobalLat(localJ)]
			for k := 0; k < f.spec.Nlayers; k++ {
				line := li*f.spec.Nlayers + k
				for col := 0; col < f.cart.Px; col++ {
					copy(full[offs[col]:offs[col]+widths[col]],
						parts[col][line*widths[col]:(line+1)*widths[col]])
				}
				f.rf.apply(damp, full)
				// Redundant arithmetic: every rank pays the full-row
				// transform cost.
				f.cart.World.Proc().Compute(lineFlops)
				v.Field.SetRowSlice(localJ, k, full[lo:lo+w])
			}
		}
	}
}
