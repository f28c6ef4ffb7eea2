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

// circleGather gives every rank of a mesh row the complete latitude circles
// of the same lines: each rank packs its longitude segments of the lines
// into one buffer and the buffers are allgathered along the row.  The
// convolution filter reads each line's segments where they landed (walk);
// only the row-wise FFT, whose transform needs a contiguous circle, puts one
// back together (circle).  On the Ring topology the allgather is
// comm.AllgathervInto, a P-1 step ring pipeline into persistent receive
// buffers; on the Tree topology it is comm.AllgathervTree, a gather to the
// row's rank 0 plus two binomial broadcasts (the lengths, then the values)
// — 3(P-1) messages, with a result allocated per call.
type circleGather struct {
	row          *comm.Comm
	topo         Topology
	spec         grid.Spec
	local        grid.Local
	widths, offs []int       // each mesh column's longitude segment and its offset in a circle
	rows         []int       // the local rows the last variable filters
	buf          []float64   // the pack buffer
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
		recv: make([][]float64, cart.Px)}
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
	w := g.local.Nlon()
	g.buf = slices.Grow(g.buf[:0], len(g.rows)*(k1-k0)*w)
	for _, localJ := range g.rows {
		for k := k0; k < k1; k++ {
			g.buf = g.buf[:len(g.buf)+w]
			f.RowSlice(localJ, k, g.buf[len(g.buf)-w:])
		}
	}
	if g.topo == Ring {
		g.parts = g.row.AllgathervInto(g.buf, g.recv)
	} else {
		g.parts = g.row.AllgathervTree(g.buf)
	}
}

// segment returns gathered line i's segment of mesh column col.
func (g *circleGather) segment(i, col int) []float64 {
	w := g.widths[col]
	return g.parts[col][i*w : (i+1)*w]
}

// circle puts gathered line i back together in full[:Nlon].
func (g *circleGather) circle(i int, full []float64) {
	for col := range g.widths {
		copy(full[g.offs[col]:], g.segment(i, col))
	}
}

// walk sets walk[1:Px] to gathered line i's segments of the mesh columns
// other than col in the order convolveSegments reads them: col-1 down to
// 0, then Px-1 down to col+1.
func (g *circleGather) walk(col, i int, walk [][]float64) {
	for t := 1; t < len(g.widths); t++ {
		if col--; col < 0 {
			col = len(g.widths) - 1
		}
		walk[t] = g.segment(i, col)
	}
}

// advance moves walk[1:len(walk)-1] on by m gathered lines: each column's
// lines lie one segment apart.
func advance(walk [][]float64, m int) {
	for t, seg := range walk[1 : len(walk)-1] {
		walk[t+1] = seg[m*len(seg) : (m+1)*len(seg)]
	}
}

// --- Convolution filter (the original code) ------------------------------

// Convolution is the original AGCM's physical-space filter: each filtered
// latitude circle is gathered onto every processor of its mesh row and the
// O(N^2) circular convolution is evaluated pointwise, one variable and one
// line at a time, read straight from the gathered segments (no circle is
// reassembled).  Only polar mesh rows have work: the severe load imbalance
// the paper measures is inherent.
type Convolution struct {
	cart *comm.Cart2D
	g    circleGather
	resp [2]*response // the grid's shared kernels, by kind

	// The kernel's walks over two lines' segments and their outputs: with
	// this scratch a steady-state Apply allocates nothing on the ring
	// topology.
	walk [2][][]float64
	dst  [2][]float64
}

// NewConvolution builds the original filter for this rank's subdomain.
func NewConvolution(cart *comm.Cart2D, spec grid.Spec, local grid.Local, topo Topology) *Convolution {
	c := &Convolution{cart: cart, g: newCircleGather(cart, spec, local, topo),
		resp: responses(cart.World.Proc(), spec)}
	for l := range c.walk {
		c.walk[l], c.dst[l] = make([][]float64, cart.Px+1), make([]float64, local.Nlon())
	}
	return c
}

// Apply implements Parallel.  As in the original code, variables are
// processed one at a time, layer by layer (the F77 code's 2-D slabs): each
// (variable, layer) slab is one circle gather, and each rank convolves its
// own longitude segment of every gathered line, read from the segments.
// Lines are convolved two at a time (convolvePair), a lone last line
// paired with itself; each line is charged and stored in line order.
func (c *Convolution) Apply(vars []Variable) {
	g, p, col := &c.g, c.cart.World.Proc(), c.cart.MyCol
	n, w := g.spec.Nlon, g.local.Nlon()
	for _, v := range vars {
		if !g.filter(v.Kind) {
			continue
		}
		kernel, last := c.resp[v.Kind].kernel, len(g.rows)-1
		for k := 0; k < g.spec.Nlayers; k++ {
			g.gather(v.Field, k, k+1)
			g.walk(col, 0, c.walk[0])
			g.walk(col, min(1, last), c.walk[1])
			for i := 0; i <= last; i += 2 {
				b := min(i+1, last)
				if i > 0 {
					advance(c.walk[0], 2)
					advance(c.walk[1], b-(i-1)) // to line i+1, or to i for a lone last line
				}
				ja, jb := g.rows[i], g.rows[b]
				convolvePair([2][]float64{kernel[g.local.GlobalLat(ja)], kernel[g.local.GlobalLat(jb)]},
					[2][]float64{g.segment(i, col), g.segment(b, col)}, 0, c.walk, c.dst)
				// The physical-space sum costs 2*N flops per point.
				p.Compute(float64(2 * n * w))
				v.Field.SetRowSlice(ja, k, c.dst[0])
				if b > i {
					p.Compute(float64(2 * n * w))
					v.Field.SetRowSlice(jb, k, c.dst[1])
				}
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
//
// A complete circle exists only in a worker's room while phase 4 filters
// it (see circleLoop).  The rank's own segment of a line it both holds and
// filters never leaves the field, so a rank that filters every line it
// holds — the 1×1 run, or unbalanced filtering on a one-column mesh —
// stages nothing: its phases 1–3 and 5–7 have no lines to move.
type FFTFilter struct {
	cart     *comm.Cart2D
	spec     grid.Spec
	local    grid.Local
	balanced bool

	// rfs[w] is worker w's row filter for phase 4's circles, which it takes
	// in batches of rfs[0].lines; a rank that does not split the loop has
	// only rfs[0].  The first layout builds rfs[0] for batches of
	// batchLines, or of all the rank's circles if fewer.
	rfs []*rowFilter

	// lineFlops is the virtual cost of filtering one line, LineFlops.
	lineFlops float64

	// Static mesh-row geometry, computed once.
	widths, lonOff []int

	// The layout for the variable kinds in kinds: the shared table, this
	// processor row's part of it, whether balancing moves any of the row's
	// lines, the work positions each mesh column filters,
	// [colStart[c], colStart[c+1]), and the positions in row.home of the
	// lines whose segment leaves this rank's block: every home line but
	// those this rank filters itself.
	kinds    []Kind
	tab      *lineTable
	row      *rowLines
	moves    bool
	vars     []Variable // the variables of the Apply in progress, for circleLoop
	colStart []int
	leave    []int
	rOffs    []int // running offsets per processor row

	// Staging for Apply's seven phases, cut from one arena to the sizes the
	// layout fixes: no buffer grows after layout.  Every send from them goes
	// through the pooled-copy comm paths and every receive lands back here
	// via *Into, so a laid-out Apply allocates nothing.  The transpose
	// staging is empty for this rank's own column, whose segments phase 4
	// reads where they are.
	homeSegs [][]float64 // each leaving home line's current segment, by position in row.home
	workSegs [][]float64 // each work line's, by position in row.work; homeSegs if none moves
	segArena []float64   // the leaving home lines' segments, in leave order
	parts    [][]float64 // transpose send staging and reverse-transpose receive buffers, per column
	tOut     [][]float64 // transpose receive buffers, filtered in place and sent back
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

	// The home lines this rank filters itself are the stay pairs whose work
	// position falls in its block; every other home line leaves it.
	bLo, bHi := loadbalance.Block(nWork, px, myCol)
	kept := make([]bool, nHome)
	for _, s := range f.row.stay {
		kept[s[0]] = bLo <= s[1] && s[1] < bHi
	}
	ints := make([]int, px+1+py+nHome)
	f.colStart, f.rOffs, f.leave = cut(&ints, px+1), cut(&ints, py), ints[:0]
	for c := 0; c < px; c++ {
		_, f.colStart[c+1] = loadbalance.Block(nWork, px, c)
	}
	for h, k := range kept {
		if !k {
			f.leave = append(f.leave, h)
		}
	}
	nBlock := bHi - bLo
	if len(f.rfs) == 0 {
		f.rfs = append(f.rfs, newRowFilter(n, max(1, min(batchLines, nBlock))))
	}
	f.moves = len(f.row.stay) != nHome || len(f.row.stay) != nWork

	// A processor row's balancing buffers serve both directions, so each is
	// cut for the larger of the two.
	rTotal := 0
	for q := 0; q < py; q++ {
		rTotal += max(f.row.to[q], f.row.from[q]) * w
	}
	nSegs := nHome
	if f.moves {
		nSegs += nWork
	}
	values := make([]float64, len(f.leave)*w+(nWork-nBlock)*w+nBlock*(n-w)+2*rTotal)
	headers := make([][]float64, nSegs+2*px+2*py)
	f.homeSegs = cut(&headers, nHome)
	f.workSegs = f.homeSegs
	if f.moves {
		f.workSegs = cut(&headers, nWork)
	}
	f.segArena = cut(&values, len(f.leave)*w)
	f.parts, f.tOut = cut(&headers, px), cut(&headers, px)
	for c := 0; c < px; c++ {
		if c != myCol {
			f.parts[c] = cut(&values, (f.colStart[c+1]-f.colStart[c])*w)[:0] // my lines that column c filters
			f.tOut[c] = cut(&values, nBlock*f.widths[c])[:0]                 // column c's segments of my circles
		}
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
	p := f.cart.World.Proc()
	w, myCol := f.local.Nlon(), f.cart.MyCol
	lines, home := f.tab.lines, f.row.home

	// Phase 1: extract the local longitude segments of my lines that leave
	// my block into the segment arena.
	for a, i := range f.leave {
		ln := lines[home[i]]
		f.homeSegs[i] = vars[ln.v].Field.RowSlice(ln.j-f.local.Lat0, ln.k, f.segArena[a*w:(a+1)*w])
	}

	// Phase 2: redistribute segments along the mesh column so each
	// processor row holds its Eq. (3) share of lines.
	if f.moves {
		f.redistribute(true)
	}

	// Phase 3: transpose within the mesh row (Figure 3): sub-block c of the
	// work list — the lines this processor row filters, in canonical order —
	// goes to mesh column c.  This rank's own sub-block stays where it is,
	// and the transpose's self part is empty.
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
	f.cart.Row.AlltoallvInto(f.parts, f.tOut)
	nBlock := f.colStart[myCol+1] - f.colStart[myCol]
	for c, buf := range f.tOut {
		if c != myCol && len(buf) != nBlock*f.widths[c] {
			panic(fmt.Sprintf("filter: transpose recv from col %d has %d values, want %d",
				c, len(buf), nBlock*f.widths[c]))
		}
	}

	// Phase 4: local FFT filtering of complete circles, charged line by
	// line once all are filtered.
	f.vars = vars
	p.Fan((*circleLoop)(f), (nBlock+f.rfs[0].lines-1)/f.rfs[0].lines)
	f.vars = nil
	for range nBlock {
		p.Compute(f.lineFlops)
	}

	// Phase 5: reverse transpose: the filtered segments go back from where
	// they arrived, and land in the transpose's send staging.
	f.cart.Row.AlltoallvInto(f.tOut, f.parts)
	for c, buf := range f.parts {
		if c == myCol {
			continue
		}
		for t, off := f.colStart[c], 0; t < f.colStart[c+1]; t, off = t+1, off+w {
			f.workSegs[t] = buf[off : off+w]
		}
	}

	// Phase 6: reverse redistribution back to the home processor rows.
	if f.moves {
		f.redistribute(false)
	}

	// Phase 7: write the filtered segments that left my block back into
	// the fields.
	for _, i := range f.leave {
		ln := lines[home[i]]
		vars[ln.v].Field.SetRowSlice(ln.j-f.local.Lat0, ln.k, f.homeSegs[i])
	}
}

// batchLines is the most circles phase 4 hands a row filter at once.  On
// the 144-point grid the batched filter's time per circle falls to about
// 0.7 of the one-circle path's by 16 and stays there up to 48.  Its
// scratch, about 2.3 KiB a circle, is 37 KiB at 16; with the circles
// themselves in the worker's room, 1.1 KiB each, a batch touches about
// 55 KiB, a little more than a 48 KiB L1.
const batchLines = 16

// circleLoop is phase 4 as a sim.Loop over batches of rfs[0].lines circles
// of this rank's block, so that every batch but the last is full however
// Fan cuts the loop.  Each worker assembles a batch in its row filter's
// room (shuttle), filters it and scatters it back.  The lines' (variable,
// row, layer) triples name disjoint field elements, and their segments
// disjoint staging, for the workers to write.
type circleLoop FFTFilter

// Run filters batches [lo, hi) with worker w's row filter.
func (c *circleLoop) Run(w, lo, hi int) {
	f := (*FFTFilter)(c)
	rf := f.rfs[w]
	room, work := rf.circleRoom(), f.row.work[f.colStart[f.cart.MyCol]:f.colStart[f.cart.MyCol+1]]
	for ; lo < hi; lo++ {
		b0 := lo * rf.lines
		circles := room[:min(rf.lines, len(work)-b0)]
		damps := rf.damps[:len(circles)]
		for i, circle := range circles {
			damps[i] = f.tab.damp[work[b0+i]]
			f.shuttle(b0+i, circle, true)
		}
		rf.applyBatch(damps, circles)
		for i, circle := range circles {
			f.shuttle(b0+i, circle, false)
		}
	}
}

// Grow gives workers up to k-1 their own row filter.
func (c *circleLoop) Grow(k int) {
	for len(c.rfs) < k {
		c.rfs = append(c.rfs, newRowFilter(c.spec.Nlon, c.rfs[0].lines))
	}
}

// shuttle copies circle bi of this rank's block into circle (in) or back
// out of it (!in), segment by segment, from and to where each segment is
// held: another column's in tOut[c] at index bi; this rank's own in the
// field if the line is homed on this processor row, else in the
// redistribution receive buffer workSegs points into.
func (f *FFTFilter) shuttle(bi int, circle []float64, in bool) {
	myCol := f.cart.MyCol
	t := f.colStart[myCol] + bi
	l := f.row.work[t]
	for c, wc := range f.widths {
		seg := circle[f.lonOff[c] : f.lonOff[c]+wc]
		var held []float64
		switch {
		case c != myCol:
			held = f.tOut[c][bi*wc : (bi+1)*wc]
		case f.tab.initOwner[l] != f.cart.MyRow:
			held = f.workSegs[t]
		case in:
			ln := f.tab.lines[l]
			f.vars[ln.v].Field.RowSlice(ln.j-f.local.Lat0, ln.k, seg)
			continue
		default:
			ln := f.tab.lines[l]
			f.vars[ln.v].Field.SetRowSlice(ln.j-f.local.Lat0, ln.k, seg)
			continue
		}
		if in {
			copy(seg, held)
		} else {
			copy(held, seg)
		}
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
