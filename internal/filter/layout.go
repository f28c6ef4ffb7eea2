package filter

import (
	"sync"

	"agcm/internal/grid"
)

// lineTable is the FFT filter's line layout: which lines exist, which
// processor row holds each before and after balancing, and every row's part
// of that.  It depends only on the grid, the number of processor rows, the
// variable kinds and whether the filter balances, so every rank of every run
// with the same four shares one read-only table.
type lineTable struct {
	lines                 []line      // every line, in canonical order
	initOwner, finalOwner []int       // processor row holding each line before and after balancing
	damp                  [][]float64 // each line's damping row, shared by the lines of one kind and latitude
	rows                  []rowLines  // per processor row
}

// rowLines is one processor row's part of a lineTable.
type rowLines struct {
	home, work []int    // ascending indices of the lines homed on / filtered by this row
	stay       [][2]int // (home, work) positions of the lines on both lists
	to, from   []int    // lines balancing sends to / receives from each processor row
}

// Tables are shared through a cache that only ever fills, as fft shares its
// twiddle tables: agcmd runs whatever grid and mesh a request names, so the
// cache holds at most maxSharedLayouts tables for grids of at most
// maxSharedLines (variable, row, layer) lines and never evicts.  A layout
// that does not fit gets a table of its own.
const (
	maxSharedLayouts = 16
	maxSharedLines   = 1 << 16
)

type tableKey struct {
	spec     grid.Spec
	py       int
	kinds    string // one byte per variable
	balanced bool
}

var sharedTables = struct {
	sync.Mutex
	byKey map[tableKey]*lineTable
}{byKey: make(map[tableKey]*lineTable)}

// tableFor returns the layout for the variable kinds on decomposition d,
// building it under the lock on first use so that ranks starting together
// build it once.
func tableFor(d grid.Decomp, kinds []Kind, balanced bool) *lineTable {
	if len(kinds)*d.Spec.Nlat*d.Spec.Nlayers > maxSharedLines {
		return newLineTable(d, kinds, balanced)
	}
	b := make([]byte, len(kinds))
	for i, k := range kinds {
		b[i] = byte(k)
	}
	key := tableKey{d.Spec, d.Py, string(b), balanced}
	sharedTables.Lock()
	defer sharedTables.Unlock()
	t := sharedTables.byKey[key]
	if t == nil {
		t = newLineTable(d, kinds, balanced)
		if len(sharedTables.byKey) < maxSharedLayouts {
			sharedTables.byKey[key] = t
		}
	}
	return t
}

// newLineTable lays out the lines of the variable kinds on d's processor
// rows.  Balancing hands them out in contiguous Eq. (3) blocks.
func newLineTable(d grid.Decomp, kinds []Kind, balanced bool) *lineTable {
	spec, py := d.Spec, d.Py
	lines := buildLines(spec, kinds)
	n := len(lines)
	t := &lineTable{lines: lines, initOwner: make([]int, n), damp: make([][]float64, n), rows: make([]rowLines, py)}
	var dampRows [2][][]float64 // indexed [kind][global j]
	for k := range dampRows {
		dampRows[k] = make([][]float64, spec.Nlat)
	}
	for l, ln := range lines {
		t.initOwner[l] = d.RowOfLat(ln.j)
		k := kinds[ln.v]
		if dampRows[k][ln.j] == nil {
			dampRows[k][ln.j] = DampingRow(spec.Nlon, spec.LatCenter(ln.j), k.CritLat())
		}
		t.damp[l] = dampRows[k][ln.j]
	}
	t.finalOwner = t.initOwner
	if balanced {
		t.finalOwner = blockOwners(n, py)
	}

	for r := range t.rows {
		t.rows[r].to, t.rows[r].from = make([]int, py), make([]int, py)
	}
	for l := range lines {
		src, dst := &t.rows[t.initOwner[l]], &t.rows[t.finalOwner[l]]
		src.home = append(src.home, l)
		dst.work = append(dst.work, l)
		if src == dst {
			src.stay = append(src.stay, [2]int{len(src.home) - 1, len(dst.work) - 1})
		} else {
			src.to[t.finalOwner[l]]++
			dst.from[t.initOwner[l]]++
		}
	}
	return t
}
