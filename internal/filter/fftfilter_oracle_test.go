package filter

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"agcm/internal/comm"
	"agcm/internal/grid"
	"agcm/internal/loadbalance"
	"agcm/internal/machine"
	"agcm/internal/sim"
)

// The transpose FFT filter as it was before its line layout became a shared
// table: every rank enumerated all lines, owned segment headers for all of
// them and walked the whole list in every phase.  Kept verbatim (names
// prefixed) as the reference the table-driven FFTFilter must reproduce bit
// for bit, message for message.

type oracleFFTFilter struct {
	cart     *comm.Cart2D
	spec     grid.Spec
	local    grid.Local
	balanced bool
	rf       *rowFilter

	// lineFlops is the virtual cost of filtering one line, LineFlops.
	lineFlops float64

	// dampCache holds the damping profiles indexed [kind][global j].
	dampCache [2][][]float64

	// Static mesh-row geometry, computed once.
	widths, lonOff []int

	// The layout for the variable kinds in kinds.  Every rank derives it
	// locally and identically.
	kinds                 []Kind
	lines                 []line
	initOwner, finalOwner []int // owning processor row before and after balancing
	myWork, sub, myBlock  []int // lines this row filters; their mesh column; this rank's share
	toCount, fromCount    []int // lines balancing sends to / receives from each processor row
	colOffs, rOffs        []int // running offsets per mesh column / processor row

	// Staging for Apply's seven phases, cut from one arena to the sizes the
	// layout fixes: no buffer grows after layout.  Every send from them goes
	// through the pooled-copy comm paths and every receive lands back here
	// via *Into, so a laid-out Apply allocates nothing.
	segs     [][]float64 // each line's current segment
	segArena []float64
	parts    [][]float64 // transpose send staging, per column
	tOut     [][]float64 // transpose receive buffers
	full     [][]float64 // complete latitude circles
	back     [][]float64 // reverse-transpose send staging
	gotOut   [][]float64 // reverse-transpose receive buffers
	rSend    [][]float64 // redistribution staging, per processor row
	rRecv    [][]float64
}

func newOracleFFT(cart *comm.Cart2D, spec grid.Spec, local grid.Local, balanced bool) *oracleFFTFilter {
	f := &oracleFFTFilter{
		cart: cart, spec: spec, local: local, balanced: balanced,
		rf:        newRowFilter(spec.Nlon, 1),
		lineFlops: LineFlops(spec.Nlon),
	}
	for k := range f.dampCache {
		f.dampCache[k] = make([][]float64, spec.Nlat)
	}
	px := cart.Px
	f.widths = make([]int, px)
	f.lonOff = make([]int, px)
	for c := 0; c < px; c++ {
		lo, hi := local.Decomp.LonRange(c)
		f.widths[c], f.lonOff[c] = hi-lo, lo
	}
	return f
}

func (f *oracleFFTFilter) damping(k Kind, j int) []float64 {
	if d := f.dampCache[k][j]; d != nil {
		return d
	}
	d := DampingRow(f.spec.Nlon, f.spec.LatCenter(j), k.CritLat())
	f.dampCache[k][j] = d
	return d
}

// oracleBlockSize is owner's share of n items under Eq. (3).
func oracleBlockSize(n, p, owner int) int {
	lo, hi := loadbalance.Block(n, p, owner)
	return hi - lo
}

func oracleBlockOwnersInto(dst []int, n, p int) []int {
	dst = dst[:0]
	for owner := 0; owner < p; owner++ {
		for c := oracleBlockSize(n, p, owner); c > 0; c-- {
			dst = append(dst, owner)
		}
	}
	return dst
}

func oracleBuildLines(spec grid.Spec, vars []Variable) []line {
	n := 0
	for _, v := range vars {
		for j := 0; j < spec.Nlat; j++ {
			if IsFiltered(spec, v.Kind, j) {
				n += spec.Nlayers
			}
		}
	}
	lines := make([]line, 0, n)
	for vi, v := range vars {
		for j := 0; j < spec.Nlat; j++ {
			if !IsFiltered(spec, v.Kind, j) {
				continue
			}
			for k := 0; k < spec.Nlayers; k++ {
				lines = append(lines, line{v: vi, j: j, k: k})
			}
		}
	}
	return lines
}

func (f *oracleFFTFilter) layout(vars []Variable) {
	d := f.local.Decomp
	py, px := f.cart.Py, f.cart.Px
	me, myCol := f.cart.MyRow, f.cart.MyCol
	w, n := f.local.Nlon(), f.spec.Nlon

	f.kinds = make([]Kind, len(vars))
	for i, v := range vars {
		f.kinds[i] = v.Kind
	}
	f.lines = oracleBuildLines(f.spec, vars)
	nLines := len(f.lines)
	mine := 0 // lines whose home is this processor row
	for _, ln := range f.lines {
		if ln.j >= f.local.Lat0 && ln.j < f.local.Lat1 {
			mine++
		}
	}
	nWork := mine
	nFinal := 0
	if f.balanced {
		nWork = oracleBlockSize(nLines, py, me)
		nFinal = nLines
	}
	nBlock := oracleBlockSize(nWork, px, myCol)

	ints := make([]int, nLines+nFinal+2*nWork+nBlock+3*py+px)
	f.initOwner = cut(&ints, nLines)
	for l, ln := range f.lines {
		f.initOwner[l] = d.RowOfLat(ln.j)
	}
	f.finalOwner = f.initOwner
	if f.balanced {
		f.finalOwner = oracleBlockOwnersInto(cut(&ints, nLines), nLines, py)
	}
	f.myWork = cut(&ints, nWork)[:0]
	f.toCount, f.fromCount = cut(&ints, py), cut(&ints, py)
	for l := range f.lines {
		from, to := f.initOwner[l], f.finalOwner[l]
		if to == me {
			f.myWork = append(f.myWork, l)
		}
		switch {
		case from == to:
		case from == me:
			f.toCount[to]++
		case to == me:
			f.fromCount[from]++
		}
	}
	f.sub = oracleBlockOwnersInto(cut(&ints, nWork), nWork, px)
	f.myBlock = cut(&ints, nBlock)[:0]
	for t := range f.myWork {
		if f.sub[t] == myCol {
			f.myBlock = append(f.myBlock, t)
		}
	}
	f.colOffs, f.rOffs = cut(&ints, px), cut(&ints, py)

	// A processor row's balancing buffers serve both directions, so each is
	// cut for the larger of the two.
	rTotal := 0
	for q := 0; q < py; q++ {
		rTotal += max(f.toCount[q], f.fromCount[q]) * w
	}
	values := make([]float64, mine*w+2*nWork*w+3*nBlock*n+2*rTotal)
	headers := make([][]float64, nLines+4*px+2*py+nBlock)
	f.segs = cut(&headers, nLines)
	f.segArena = cut(&values, mine*w)
	f.parts, f.tOut = cut(&headers, px), cut(&headers, px)
	f.back, f.gotOut = cut(&headers, px), cut(&headers, px)
	for c := 0; c < px; c++ {
		toCol := oracleBlockSize(nWork, px, c) * w // my lines that column c filters
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
		room := max(f.toCount[q], f.fromCount[q]) * w
		f.rSend[q], f.rRecv[q] = cut(&values, room)[:0], cut(&values, room)[:0]
	}
}

func (f *oracleFFTFilter) Apply(vars []Variable) {
	if !slices.EqualFunc(f.kinds, vars, func(k Kind, v Variable) bool { return k == v.Kind }) {
		f.layout(vars)
	}
	lines := f.lines
	if len(lines) == 0 {
		return
	}
	px := f.cart.Px
	me := f.cart.MyRow
	w := f.local.Nlon()
	initOwner, segs := f.initOwner, f.segs

	// Phase 1: extract the local longitude segments of my lines into the
	// segment arena.
	pos := 0
	for l, ln := range lines {
		segs[l] = nil
		if initOwner[l] != me {
			continue
		}
		seg := f.segArena[pos : pos+w]
		pos += w
		segs[l] = vars[ln.v].Field.RowSlice(ln.j-f.local.Lat0, ln.k, seg)
	}

	// Phase 2: redistribute segments along the mesh column so each
	// processor row holds its Eq. (3) share of lines.
	if f.balanced {
		f.redistribute(true)
	}

	// Phase 3: transpose within the mesh row (Figure 3): sub-block c of
	// myWork — the lines this processor row filters, in canonical order —
	// becomes complete latitude circles on mesh column c.
	myWork, sub, myBlock := f.myWork, f.sub, f.myBlock
	for c := range f.parts {
		f.parts[c] = f.parts[c][:0]
	}
	for t, l := range myWork {
		f.parts[sub[t]] = append(f.parts[sub[t]], segs[l]...)
	}
	recv := f.cart.Row.AlltoallvInto(f.parts, f.tOut)

	full := f.full
	for c := 0; c < px; c++ {
		buf := recv[c]
		if len(buf) != len(myBlock)*f.widths[c] {
			panic(fmt.Sprintf("filter: transpose recv from col %d has %d values, want %d",
				c, len(buf), len(myBlock)*f.widths[c]))
		}
		for bi := range myBlock {
			copy(full[bi][f.lonOff[c]:f.lonOff[c]+f.widths[c]], buf[bi*f.widths[c]:(bi+1)*f.widths[c]])
		}
	}

	// Phase 4: local FFT filtering of complete circles.
	for bi, t := range myBlock {
		ln := lines[myWork[t]]
		f.rf.damps[0] = f.damping(vars[ln.v].Kind, ln.j)
		f.rf.applyBatch(f.rf.damps, full[bi:bi+1])
		f.cart.World.Proc().Compute(f.lineFlops)
	}

	// Phase 5: reverse transpose.
	for c := 0; c < px; c++ {
		buf := f.back[c][:0]
		for bi := range myBlock {
			buf = append(buf, full[bi][f.lonOff[c]:f.lonOff[c]+f.widths[c]]...)
		}
		f.back[c] = buf
	}
	got := f.cart.Row.AlltoallvInto(f.back, f.gotOut)
	for c := range f.colOffs {
		f.colOffs[c] = 0
	}
	for t, l := range myWork {
		c := sub[t]
		segs[l] = got[c][f.colOffs[c] : f.colOffs[c]+w]
		f.colOffs[c] += w
	}

	// Phase 6: reverse redistribution back to the home processor rows.
	if f.balanced {
		f.redistribute(false)
	}

	// Phase 7: write the filtered segments back into the fields.
	for l, ln := range lines {
		if initOwner[l] != me {
			continue
		}
		vars[ln.v].Field.SetRowSlice(ln.j-f.local.Lat0, ln.k, segs[l])
	}
}

func (f *oracleFFTFilter) redistribute(forward bool) {
	from, to, nRecv, tag := f.initOwner, f.finalOwner, f.fromCount, tagBalance
	if !forward {
		from, to, nRecv, tag = to, from, f.toCount, tagBalanceBack
	}
	me := f.cart.MyRow
	py := f.cart.Py
	w := f.local.Nlon()
	segs := f.segs

	for dst := range f.rSend {
		f.rSend[dst] = f.rSend[dst][:0]
	}
	for l := range f.lines {
		if from[l] == me && to[l] != me {
			f.rSend[to[l]] = append(f.rSend[to[l]], segs[l]...)
			segs[l] = nil
		}
	}
	for dst := 0; dst < py; dst++ {
		if dst != me && len(f.rSend[dst]) > 0 {
			f.cart.Col.SendCopy(dst, tag, f.rSend[dst])
		}
	}
	for src := 0; src < py; src++ {
		if nRecv[src] > 0 {
			f.rRecv[src] = f.cart.Col.RecvInto(src, tag, f.rRecv[src])
		}
	}
	for src := range f.rOffs {
		f.rOffs[src] = 0
	}
	for l := range f.lines {
		if to[l] == me && from[l] != me {
			src := from[l]
			segs[l] = f.rRecv[src][f.rOffs[src] : f.rOffs[src]+w]
			f.rOffs[src] += w
		}
	}
}

// kindVars allocates one variable per kind on a subdomain, filled with the
// package's deterministic test values.
func kindVars(l grid.Local, kinds []Kind) []Variable {
	vars := make([]Variable, len(kinds))
	for vi, k := range kinds {
		f := grid.NewField(l, 1)
		for j := 0; j < l.Nlat(); j++ {
			for i := 0; i < l.Nlon(); i++ {
				for lk := 0; lk < l.Nlayers(); lk++ {
					f.Set(j, i, lk, initValue(vi, l.GlobalLat(j), l.GlobalLon(i), lk))
				}
			}
		}
		vars[vi] = Variable{Name: fmt.Sprint("x", vi), Kind: k, Field: f}
	}
	return vars
}

// filterRun is what one filter program leaves behind: every rank's field
// bits after each Apply, and the machine's clocks, traffic and event log.
type filterRun struct {
	bits [][]uint64 // per rank
	res  *sim.Result
}

// runFilterProgram runs, on every rank of a py x px mesh, one filter that is
// applied twice to fresh variables of each kinds list in seq in turn.
func runFilterProgram(spec grid.Spec, py, px int, seq [][]Kind,
	mk func(cart *comm.Cart2D, l grid.Local) Parallel) (filterRun, error) {
	d, err := grid.NewDecomp(spec, py, px)
	if err != nil {
		return filterRun{}, err
	}
	bits := make([][]uint64, py*px)
	m := sim.New(py*px, machine.Paragon())
	m.SetEventLog(true)
	res, err := m.Run(func(p *sim.Proc) error {
		cart := comm.NewCart2D(comm.World(p), py, px)
		l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
		flt := mk(cart, l)
		var out []uint64
		for _, kinds := range seq {
			vars := kindVars(l, kinds)
			for rep := 0; rep < 2; rep++ {
				flt.Apply(vars)
				for _, v := range vars {
					for j := 0; j < l.Nlat(); j++ {
						for i := 0; i < l.Nlon(); i++ {
							for k := 0; k < l.Nlayers(); k++ {
								out = append(out, math.Float64bits(v.Field.At(j, i, k)))
							}
						}
					}
				}
			}
		}
		bits[p.Rank()] = out
		return nil
	})
	return filterRun{bits, res}, err
}

// sameRun reports the first difference between two filter programs' results.
func sameRun(got, want filterRun) error {
	for r := range want.bits {
		if !slices.Equal(got.bits[r], want.bits[r]) {
			return fmt.Errorf("rank %d: field bits differ", r)
		}
	}
	g, w := got.res, want.res
	for r := range w.Clocks {
		switch {
		case g.Clocks[r] != w.Clocks[r]:
			return fmt.Errorf("rank %d: clock %v, oracle %v", r, g.Clocks[r], w.Clocks[r])
		case g.MessagesSent[r] != w.MessagesSent[r] || g.BytesSent[r] != w.BytesSent[r]:
			return fmt.Errorf("rank %d: sent %d msgs / %d B, oracle %d / %d",
				r, g.MessagesSent[r], g.BytesSent[r], w.MessagesSent[r], w.BytesSent[r])
		case !slices.Equal(g.Events[r], w.Events[r]):
			return fmt.Errorf("rank %d: event logs differ", r)
		}
	}
	return nil
}

// checkAgainstOracle runs a program with the FFT filter and with the oracle
// and fails on any difference.
func checkAgainstOracle(t *testing.T, spec grid.Spec, py, px int, balanced bool, seq [][]Kind) {
	t.Helper()
	if err := againstOracle(spec, py, px, balanced, seq); err != nil {
		t.Fatal(err)
	}
}

func againstOracle(spec grid.Spec, py, px int, balanced bool, seq [][]Kind) error {
	got, err := runFilterProgram(spec, py, px, seq, func(c *comm.Cart2D, l grid.Local) Parallel {
		return NewFFT(c, spec, l, balanced)
	})
	if err != nil {
		return err
	}
	want, err := runFilterProgram(spec, py, px, seq, func(c *comm.Cart2D, l grid.Local) Parallel {
		return newOracleFFT(c, spec, l, balanced)
	})
	if err != nil {
		return err
	}
	if err := sameRun(got, want); err != nil {
		return fmt.Errorf("%dx%d balanced=%v kinds %v: %v", py, px, balanced, seq, err)
	}
	return nil
}

// oracleSpec has uneven latitude and longitude blocks on every test mesh and
// room for the 8x30 one.
var oracleSpec = grid.Spec{Nlon: 64, Nlat: 26, Nlayers: 2}

var (
	sss = []Kind{Strong, Strong, Strong}
	sw  = []Kind{Strong, Weak}
	ww  = []Kind{Weak}
)

// TestFFTFilterMatchesOracle is the differential check of the table-driven
// filter: identical field bits, virtual clocks, message and byte counts and
// event logs on every mesh, balanced and not, for each kind list.  The 4x1
// and 8x1 meshes are one-wide rows whose balancing moves lines.
func TestFFTFilterMatchesOracle(t *testing.T) {
	meshes := [][2]int{{1, 1}, {1, 4}, {2, 2}, {2, 4}, {3, 5}, {4, 1}, {8, 1}, {8, 30}}
	for _, mesh := range meshes {
		for _, balanced := range []bool{true, false} {
			for _, kinds := range [][]Kind{sss, sw, ww} {
				t.Run(fmt.Sprintf("%dx%d/balanced=%v/%v", mesh[0], mesh[1], balanced, kinds), func(t *testing.T) {
					checkAgainstOracle(t, oracleSpec, mesh[0], mesh[1], balanced, [][]Kind{kinds})
				})
			}
		}
	}
}

// TestFFTFilterRelayoutMatchesOracle drives one filter through a sequence
// of kind lists, so every change relays it out over the previous layout.
func TestFFTFilterRelayoutMatchesOracle(t *testing.T) {
	seq := [][]Kind{sss, sw, ww, sss}
	for _, mesh := range [][2]int{{2, 4}, {3, 5}} {
		for _, balanced := range []bool{true, false} {
			checkAgainstOracle(t, oracleSpec, mesh[0], mesh[1], balanced, seq)
		}
	}
}

// TestFFTFilterSharedTablesConcurrent runs two machines of one shape at
// once: every rank of a machine reads the one line table its machine's
// store holds, the other machine builds its own, and both filter exactly as
// the oracle does (run under -race in CI).
func TestFFTFilterSharedTablesConcurrent(t *testing.T) {
	const py, px = 2, 4
	seq := [][]Kind{sw}
	want, err := runFilterProgram(oracleSpec, py, px, seq, func(c *comm.Cart2D, l grid.Local) Parallel {
		return newOracleFFT(c, oracleSpec, l, true)
	})
	if err != nil {
		t.Fatal(err)
	}
	filters := make([][]*FFTFilter, 2)
	errs := make([]error, len(filters))
	var wg sync.WaitGroup
	for m := range filters {
		filters[m] = make([]*FFTFilter, py*px)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := runFilterProgram(oracleSpec, py, px, seq, func(c *comm.Cart2D, l grid.Local) Parallel {
				f := NewFFT(c, oracleSpec, l, true)
				filters[m][c.World.Rank()] = f
				return f
			})
			if err == nil {
				err = sameRun(got, want)
			}
			errs[m] = err
		}()
	}
	wg.Wait()
	for m, err := range errs {
		if err != nil {
			t.Fatalf("machine %d: %v", m, err)
		}
	}
	for m, fs := range filters {
		for r, f := range fs {
			if f.tab != fs[0].tab {
				t.Fatalf("machine %d: rank %d reads a line table of its own", m, r)
			}
		}
	}
	if filters[0][0].tab == filters[1][0].tab {
		t.Fatal("two machines of one shape share a line table")
	}
}

// TestFFTFilterFanMatchesOracle runs the filter with GOMAXPROCS 8, so every
// rank of a machine of up to four ranks with more than one batch of circles
// splits its batches (sim.Fan) two to six ways, against the oracle, which
// filters them one by one: the same field bits, clocks, traffic and event
// logs, through a relayout.
func TestFFTFilterFanMatchesOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, mesh := range [][2]int{{1, 1}, {1, 4}, {2, 2}, {4, 1}, {1, 3}} {
		for _, balanced := range []bool{true, false} {
			checkAgainstOracle(t, oracleSpec, mesh[0], mesh[1], balanced, [][]Kind{sss, sw, ww})
		}
	}
}

// TestFFTFilterLoopFanMatchesOracle runs the filter against the oracle at
// GOMAXPROCS 1, 2 and 4, so each rank's batch loop (circleLoop) runs inline
// or up to four workers wide: 1x1 and unbalanced 2x1, where every circle is
// the rank's own and is read from and written back to the fields; balanced
// 2x1, whose moved lines are filtered in their redistribution buffers; and
// 1x4 and 2x2, whose circles are assembled from the transpose's segments
// (inline here: four ranks leave no spare P; TestFFTFilterFanMatchesOracle
// splits them).
func TestFFTFilterLoopFanMatchesOracle(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		withProcs(procs, func() {
			for _, mesh := range [][2]int{{1, 1}, {2, 1}, {1, 4}, {2, 2}} {
				for _, balanced := range []bool{true, false} {
					if err := againstOracle(oracleSpec, mesh[0], mesh[1], balanced, [][]Kind{sss, sw, ww, sss}); err != nil {
						t.Fatalf("GOMAXPROCS %d: %v", procs, err)
					}
				}
			}
		})
	}
}

// TestFFTFilterBatchBoundaries holds the pinned bits whatever the batch
// the row filters take: one circle at a time, three, or batchLines, on
// machines whose circles are split over one to eight workers.
func TestFFTFilterBatchBoundaries(t *testing.T) {
	spec := grid.TwoByTwoPointFive(2)
	for _, batch := range []int{1, 3, batchLines} {
		for _, procs := range []int{1, 2, 8} {
			for _, mesh := range [][2]int{{1, 1}, {2, 2}, {4, 1}} {
				var got string
				withProcs(procs, func() {
					got = fftFilterBits(t, spec, mesh[0], mesh[1], true, 3, func(f *FFTFilter) { f.rfs = []*rowFilter{newRowFilter(spec.Nlon, batch)} })
				})
				if got != fftPinnedHash {
					t.Errorf("batch %d, procs %d, %dx%d: field bits hash to %s, want %s", batch, procs, mesh[0], mesh[1], got, fftPinnedHash)
				}
			}
		}
	}
}
