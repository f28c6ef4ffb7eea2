package filter

import (
	"fmt"
	"slices"

	"agcm/internal/comm"
	"agcm/internal/grid"
	"agcm/internal/loadbalance"
)

// Tags for the filter's column-direction traffic (user tag range).
const (
	tagBalance = 11 + iota
	tagBalanceBack
)

// Topology selects the data motion of the convolution filter's circle
// gather (see circleGather), matching the two implementations in the
// original parallel AGCM.
type Topology int

const (
	// Ring circulates segments around the processor ring in the
	// longitudinal direction: P-1 steps, P(P-1) messages, N*P volume.
	Ring Topology = iota
	// Tree gathers to one rank and rebroadcasts along binomial trees:
	// 3(P-1) messages.
	Tree
)

// Parallel is a parallel filtering algorithm applied collectively by every
// rank of the mesh each time step.  Its variants are named by
// core.FilterVariant.
type Parallel interface {
	// Apply filters all variables in place.  Collective: every rank of
	// the mesh must call it with the same variable list.
	Apply(vars []Variable)
}

// --- Circle gather (the convolution and row-wise FFT filters) ------------

// circleGather assembles complete latitude circles on every rank of a mesh
// row: each rank packs its longitude segments of the same lines into one
// buffer, the buffers are allgathered along the row, and each line's circle
// is put back together from the gathered segments.  On the Ring topology
// the allgather is comm.AllgathervInto, a P-1 step ring pipeline into
// persistent receive buffers; on the Tree topology it is
// comm.AllgathervTree, a gather to the row's rank 0 plus two binomial
// broadcasts (the lengths, then the values) — 3(P-1) messages, with a
// result allocated per call.
type circleGather struct {
	row          *comm.Comm
	topo         Topology
	spec         grid.Spec
	local        grid.Local
	widths, offs []int       // each mesh column's longitude segment and its offset in a circle
	rows         []int       // the local rows the last variable filters
	buf, seg     []float64   // the pack buffer; one segment as read
	recv         [][]float64 // Ring receive buffers, one per mesh column
	parts        [][]float64 // the last gather's buffers, one per mesh column
}

// lonSegments returns the width of every mesh column's longitude segment and
// its offset in a full latitude circle: the mesh-row geometry.
func lonSegments(d grid.Decomp) (widths, offs []int) {
	widths, offs = make([]int, d.Px), make([]int, d.Px)
	for col := range widths {
		lo, hi := d.LonRange(col)
		widths[col], offs[col] = hi-lo, lo
	}
	return widths, offs
}

// newCircleGather builds the circle gather of this rank's mesh row.
func newCircleGather(cart *comm.Cart2D, spec grid.Spec, local grid.Local, topo Topology) circleGather {
	widths, offs := lonSegments(local.Decomp)
	return circleGather{row: cart.Row, topo: topo, spec: spec, local: local, widths: widths, offs: offs,
		seg: make([]float64, local.Nlon()), recv: make([][]float64, cart.Px)}
}

// filter sets rows to the local latitude rows filtered for kind and
// reports whether there are any.  They are the same on the whole mesh row,
// so its ranks join the same gathers; equatorial mesh rows stay idle — the
// load imbalance the paper measures.
func (g *circleGather) filter(kind Kind) bool {
	g.rows = g.rows[:0]
	for localJ := 0; localJ < g.local.Nlat(); localJ++ {
		if IsFiltered(g.spec, kind, g.local.GlobalLat(localJ)) {
			g.rows = append(g.rows, localJ)
		}
	}
	return len(g.rows) > 0
}

// gather packs this rank's segments of layers [k0, k1) of f on every row in
// rows, row by row, and allgathers the packs along the mesh row.  Gathered
// line i is row rows[i/(k1-k0)] at layer k0+i%(k1-k0).
func (g *circleGather) gather(f *grid.Field, k0, k1 int) {
	g.buf = g.buf[:0]
	for _, localJ := range g.rows {
		for k := k0; k < k1; k++ {
			g.seg = f.RowSlice(localJ, k, g.seg)
			g.buf = append(g.buf, g.seg...)
		}
	}
	if g.topo == Ring {
		g.parts = g.row.AllgathervInto(g.buf, g.recv)
	} else {
		g.parts = g.row.AllgathervTree(g.buf)
	}
}

// circle puts gathered line i back together in full[:Nlon].
func (g *circleGather) circle(i int, full []float64) {
	for col, w := range g.widths {
		copy(full[g.offs[col]:g.offs[col]+w], g.parts[col][i*w:(i+1)*w])
	}
}

// --- Convolution filter (the original code) ------------------------------

// Convolution is the original AGCM's physical-space filter: each filtered
// latitude circle is gathered onto every processor of its mesh row and the
// O(N^2) circular convolution is evaluated pointwise, one variable and one
// line at a time.  Only polar mesh rows have work: the severe load
// imbalance the paper measures is inherent.
type Convolution struct {
	cart *comm.Cart2D
	g    circleGather
	resp [2]*response // the grid's shared kernels, by kind

	// full carries convPad wraparound values past the circle so the
	// convolution kernel runs without modulo indexing.  With this scratch
	// a steady-state Apply allocates nothing on the ring topology.
	full, dst []float64
}

// NewConvolution builds the original filter for this rank's subdomain.
func NewConvolution(cart *comm.Cart2D, spec grid.Spec, local grid.Local, topo Topology) *Convolution {
	return &Convolution{cart: cart, g: newCircleGather(cart, spec, local, topo),
		resp: responses(cart.World.Proc(), spec),
		full: make([]float64, spec.Nlon+convPad), dst: make([]float64, local.Nlon())}
}

// Apply implements Parallel.  As in the original code, variables are
// processed one at a time, layer by layer (the F77 code's 2-D slabs): each
// (variable, layer) slab is one circle gather, and each rank convolves its
// own longitude segment of every reassembled line.
func (c *Convolution) Apply(vars []Variable) {
	g, p := &c.g, c.cart.World.Proc()
	n, w, lo := g.spec.Nlon, g.local.Nlon(), g.offs[c.cart.MyCol]
	for _, v := range vars {
		if !g.filter(v.Kind) {
			continue
		}
		kernel := c.resp[v.Kind].kernel
		for k := 0; k < g.spec.Nlayers; k++ {
			g.gather(v.Field, k, k+1)
			for i, localJ := range g.rows {
				g.circle(i, c.full)
				for q := 0; q < convPad; q++ {
					c.full[n+q] = c.full[q%n]
				}
				convolveExt(kernel[g.local.GlobalLat(localJ)], c.full, c.dst, lo)
				// The physical-space sum costs 2*N flops per point.
				p.Compute(float64(2 * n * w))
				v.Field.SetRowSlice(localJ, k, c.dst)
			}
		}
	}
}

// --- FFT filter, with and without load balancing -------------------------

// FFTFilter is the paper's optimized filter: filtered lines are (optionally)
// redistributed evenly over the processor mesh in the latitudinal direction
// (Figure 2), transposed within mesh rows so each processor holds complete
// latitude circles (Figure 3), filtered by local FFTs, and restored.
// All weakly and strongly filtered variables are processed concurrently —
// the reorganization Section 3.3 describes.
//
// Which lines exist, who owns them before and after balancing and how many
// values every message carries depend only on the kinds of the variables:
// the filter keeps its processor row's part of a table every rank of the
// machine shares (see tableFor) and stages every Apply through buffers cut
// to those exact sizes, so a rank's host work scales with its own lines,
// not the grid's.
type FFTFilter struct {
	cart     *comm.Cart2D
	spec     grid.Spec
	local    grid.Local
	balanced bool

	// rfs[w] is worker w's row filter for phase 4's circles (see
	// circleLoop); a rank that does not split the phase has only rfs[0].
	rfs []*rowFilter

	// lineFlops is the virtual cost of filtering one line, LineFlops.
	lineFlops float64

	// Static mesh-row geometry, computed once.
	widths, lonOff []int

	// The layout for the variable kinds in kinds: the shared table, this
	// processor row's part of it, whether balancing moves any of the row's
	// lines, and the work positions each mesh column filters,
	// [colStart[c], colStart[c+1]).
	kinds    []Kind
	tab      *lineTable
	row      *rowLines
	moves    bool
	colStart []int
	rOffs    []int // running offsets per processor row

	// Staging for Apply's seven phases, cut from one arena to the sizes the
	// layout fixes: no buffer grows after layout.  Every send from them goes
	// through the pooled-copy comm paths and every receive lands back here
	// via *Into, so a laid-out Apply allocates nothing.  The transpose
	// staging is empty for this rank's own column: its segments go straight
	// into and out of full.
	homeSegs [][]float64 // each home line's current segment, by position in row.home
	workSegs [][]float64 // each work line's, by position in row.work; homeSegs if none moves
	segArena []float64
	parts    [][]float64 // transpose send staging, per column
	tOut     [][]float64 // transpose receive buffers
	full     [][]float64 // complete latitude circles
	back     [][]float64 // reverse-transpose send staging
	gotOut   [][]float64 // reverse-transpose receive buffers
	rSend    [][]float64 // redistribution staging, per processor row
	rRecv    [][]float64
}

// NewFFT builds the transpose-based FFT filter.  With balanced=true the
// generic row-balancing module spreads the filtered lines over the whole
// mesh first; with balanced=false the polar processors keep all the work
// (the middle column of the paper's Tables 8-11).
func NewFFT(cart *comm.Cart2D, spec grid.Spec, local grid.Local, balanced bool) *FFTFilter {
	widths, lonOff := lonSegments(local.Decomp)
	return &FFTFilter{
		cart: cart, spec: spec, local: local, balanced: balanced,
		rfs:       []*rowFilter{newRowFilter(spec.Nlon)},
		lineFlops: LineFlops(spec.Nlon),
		widths:    widths, lonOff: lonOff,
	}
}

// blockOwners assigns n items to p owners in the Eq. (3) blocks of
// loadbalance.Block, returning the owner of each item.
func blockOwners(n, p int) []int {
	owners := make([]int, n)
	for owner := 0; owner < p; owner++ {
		lo, hi := loadbalance.Block(n, p, owner)
		for i := lo; i < hi; i++ {
			owners[i] = owner
		}
	}
	return owners
}

// cut takes the next n elements off the front of arena as a slice that
// cannot grow into its neighbour.
func cut[T any](arena *[]T, n int) []T {
	s := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return s
}

// layout takes the table for the kinds of vars, splits this processor row's
// work lines over the mesh columns, and cuts the staging buffers to the
// resulting sizes: one allocation each for the offsets, the slice headers
// and the values.
func (f *FFTFilter) layout(vars []Variable) {
	py, px, myCol := f.cart.Py, f.cart.Px, f.cart.MyCol
	w, n := f.local.Nlon(), f.spec.Nlon

	f.kinds = kindsOf(vars)
	f.tab = tableFor(f.cart.World.Proc(), f.local.Decomp, f.kinds, f.balanced)
	f.row = &f.tab.rows[f.cart.MyRow]
	nHome, nWork := len(f.row.home), len(f.row.work)

	ints := make([]int, px+1+py)
	f.colStart, f.rOffs = cut(&ints, px+1), cut(&ints, py)
	for c := 0; c < px; c++ {
		_, f.colStart[c+1] = loadbalance.Block(nWork, px, c)
	}
	nBlock := f.colStart[myCol+1] - f.colStart[myCol]

	// A processor row's balancing buffers serve both directions, so each is
	// cut for the larger of the two.
	rTotal := 0
	for q := 0; q < py; q++ {
		rTotal += max(f.row.to[q], f.row.from[q]) * w
	}
	f.moves = len(f.row.stay) != nHome || len(f.row.stay) != nWork
	nSegs := nHome
	if f.moves {
		nSegs += nWork
	}
	values := make([]float64, nHome*w+nBlock*n+2*(nWork-nBlock)*w+2*nBlock*(n-w)+2*rTotal)
	headers := make([][]float64, nSegs+4*px+2*py+nBlock)
	f.homeSegs = cut(&headers, nHome)
	f.workSegs = f.homeSegs
	if f.moves {
		f.workSegs = cut(&headers, nWork)
	}
	f.segArena = cut(&values, nHome*w)
	f.parts, f.tOut = cut(&headers, px), cut(&headers, px)
	f.back, f.gotOut = cut(&headers, px), cut(&headers, px)
	for c := 0; c < px; c++ {
		if c == myCol {
			continue
		}
		toCol := (f.colStart[c+1] - f.colStart[c]) * w // my lines that column c filters
		f.parts[c], f.gotOut[c] = cut(&values, toCol)[:0], cut(&values, toCol)[:0]
		fromCol := nBlock * f.widths[c] // column c's segments of my circles
		f.tOut[c], f.back[c] = cut(&values, fromCol)[:0], cut(&values, fromCol)[:0]
	}
	f.full = cut(&headers, nBlock)
	for bi := range f.full {
		f.full[bi] = cut(&values, n)
	}
	f.rSend, f.rRecv = cut(&headers, py), cut(&headers, py)
	for q := 0; q < py; q++ {
		room := max(f.row.to[q], f.row.from[q]) * w
		f.rSend[q], f.rRecv[q] = cut(&values, room)[:0], cut(&values, room)[:0]
	}
}

// Apply implements Parallel.  All seven phases stage through the buffers
// layout cut, so a call with the same variable kinds as the last one
// allocates nothing.
func (f *FFTFilter) Apply(vars []Variable) {
	if !slices.EqualFunc(f.kinds, vars, func(k Kind, v Variable) bool { return k == v.Kind }) {
		f.layout(vars)
	}
	if f.tab == nil || len(f.tab.lines) == 0 {
		return
	}
	px := f.cart.Px
	w := f.local.Nlon()
	lines, home := f.tab.lines, f.row.home

	// Phase 1: extract the local longitude segments of my lines into the
	// segment arena.
	for i, l := range home {
		ln := lines[l]
		f.homeSegs[i] = vars[ln.v].Field.RowSlice(ln.j-f.local.Lat0, ln.k, f.segArena[i*w:(i+1)*w])
	}

	// Phase 2: redistribute segments along the mesh column so each
	// processor row holds its Eq. (3) share of lines.
	if f.moves {
		f.redistribute(true)
	}

	// Phase 3: transpose within the mesh row (Figure 3): sub-block c of the
	// work list — the lines this processor row filters, in canonical order —
	// becomes complete latitude circles on mesh column c.  This rank's own
	// sub-block is never staged: its segments are copied into the circles
	// directly, and the transpose's self part is empty.
	myCol := f.cart.MyCol
	for c := range f.parts {
		if c == myCol {
			continue
		}
		buf := f.parts[c][:0]
		for _, seg := range f.workSegs[f.colStart[c]:f.colStart[c+1]] {
			buf = append(buf, seg...)
		}
		f.parts[c] = buf
	}
	recv := f.cart.Row.AlltoallvInto(f.parts, f.tOut)

	full := f.full
	mine := f.workSegs[f.colStart[myCol]:f.colStart[myCol+1]]
	for c := 0; c < px; c++ {
		lo, wc := f.lonOff[c], f.widths[c]
		if c == myCol {
			for bi, seg := range mine {
				copy(full[bi][lo:lo+wc], seg)
			}
			continue
		}
		buf := recv[c]
		if len(buf) != len(full)*wc {
			panic(fmt.Sprintf("filter: transpose recv from col %d has %d values, want %d",
				c, len(buf), len(full)*wc))
		}
		for bi := range full {
			copy(full[bi][lo:lo+wc], buf[bi*wc:(bi+1)*wc])
		}
	}

	// Phase 4: local FFT filtering of complete circles, charged line by
	// line once all are filtered.
	p := f.cart.World.Proc()
	p.Fan((*circleLoop)(f), len(full))
	for range full {
		p.Compute(f.lineFlops)
	}

	// Phase 5: reverse transpose; this rank's own segments are rebound to
	// their place in the circles.
	for c := 0; c < px; c++ {
		if c == myCol {
			continue
		}
		buf := f.back[c][:0]
		for bi := range full {
			buf = append(buf, full[bi][f.lonOff[c]:f.lonOff[c]+f.widths[c]]...)
		}
		f.back[c] = buf
	}
	got := f.cart.Row.AlltoallvInto(f.back, f.gotOut)
	for c := 0; c < px; c++ {
		if c == myCol {
			for bi := range mine {
				mine[bi] = full[bi][f.lonOff[c] : f.lonOff[c]+w]
			}
			continue
		}
		for t, off := f.colStart[c], 0; t < f.colStart[c+1]; t, off = t+1, off+w {
			f.workSegs[t] = got[c][off : off+w]
		}
	}

	// Phase 6: reverse redistribution back to the home processor rows.
	if f.moves {
		f.redistribute(false)
	}

	// Phase 7: write the filtered segments back into the fields.
	for i, l := range home {
		ln := lines[l]
		vars[ln.v].Field.SetRowSlice(ln.j-f.local.Lat0, ln.k, f.homeSegs[i])
	}
}

// circleLoop is phase 4 as a sim.Loop: the complete circles of this rank's
// sub-block, each filtered by its worker's row filter.
type circleLoop FFTFilter

// Run filters circles [lo, hi) with worker w's row filter.
func (c *circleLoop) Run(w, lo, hi int) {
	f := (*FFTFilter)(c)
	rf := f.rfs[w]
	work := f.row.work[f.colStart[f.cart.MyCol]:]
	for bi := lo; bi < hi; bi++ {
		rf.apply(f.tab.damp[work[bi]], f.full[bi])
	}
}

// Grow gives workers up to k-1 their own row filter.
func (c *circleLoop) Grow(k int) {
	for len(c.rfs) < k {
		c.rfs = append(c.rfs, newRowFilter(c.spec.Nlon))
	}
}

// redistribute moves each line's segment along the mesh column, one message
// per (src, dst) pair, preserving the canonical line order inside every
// message: forward from the line's home processor row to the row that
// filters it, otherwise back.  It walks only this row's home and work lists,
// which ascend in canonical order.  Sends are pooled copies and receives
// land in the filter's staging, whose contents stay valid (referenced
// through the segment headers) until the next redistribute call — by which
// time Apply has rebound every live segment elsewhere.
func (f *FFTFilter) redistribute(forward bool) {
	row := f.row
	src, dst, srcSegs, dstSegs := row.home, row.work, f.homeSegs, f.workSegs
	srcOf, dstOf := 0, 1 // which half of a stay pair indexes src / dst
	away, from := f.tab.finalOwner, f.tab.initOwner
	nRecv, tag := row.from, tagBalance
	if !forward {
		src, dst, srcSegs, dstSegs = dst, src, dstSegs, srcSegs
		srcOf, dstOf = dstOf, srcOf
		away, from = from, away
		nRecv, tag = row.to, tagBalanceBack
	}
	me := f.cart.MyRow
	w := f.local.Nlon()

	for q := range f.rSend {
		f.rSend[q] = f.rSend[q][:0]
	}
	for i, l := range src {
		if q := away[l]; q != me {
			f.rSend[q] = append(f.rSend[q], srcSegs[i]...)
		}
	}
	for q, buf := range f.rSend {
		if q != me && len(buf) > 0 {
			f.cart.Col.SendCopy(q, tag, buf)
		}
	}
	for q, n := range nRecv {
		if n > 0 {
			f.rRecv[q] = f.cart.Col.RecvInto(q, tag, f.rRecv[q])
		}
	}
	clear(f.rOffs)
	for t, l := range dst {
		if q := from[l]; q != me {
			dstSegs[t] = f.rRecv[q][f.rOffs[q] : f.rOffs[q]+w]
			f.rOffs[q] += w
		}
	}
	for _, s := range row.stay {
		dstSegs[s[dstOf]] = srcSegs[s[srcOf]]
	}
}
