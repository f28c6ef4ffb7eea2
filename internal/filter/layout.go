package filter

import (
	"agcm/internal/fft"
	"agcm/internal/grid"
	"agcm/internal/sim"
)

// lineTable is the FFT filter's line layout: which lines exist, which
// processor row holds each before and after balancing, and every row's part
// of that.  It depends only on the grid, the number of processor rows, the
// variable kinds and whether the filter balances, so every rank of a machine
// with the same four shares one read-only table.
type lineTable struct {
	lines                 []line      // every line, in canonical order
	initOwner, finalOwner []int       // processor row holding each line before and after balancing
	damp                  [][]float64 // each line's damping row, from its kind's response
	rows                  []rowLines  // per processor row
}

// rowLines is one processor row's part of a lineTable.
type rowLines struct {
	home, work []int    // ascending indices of the lines homed on / filtered by this row
	stay       [][2]int // (home, work) positions of the lines on both lists
	to, from   []int    // lines balancing sends to / receives from each processor row
}

// response is one grid's filter response for one kind, indexed by global
// latitude row and nil on the rows the kind leaves alone: the damping row,
// and the physical-space convolution kernel equivalent to it.  Every filter
// on the grid on one machine reads the same read-only copy.
type response struct {
	damp, kernel [][]float64
}

// Both tables are kept in the machine's store (sim.Shared) under these keys.
type tableKey struct {
	spec     grid.Spec
	py       int
	kinds    string // one byte per variable
	balanced bool
}

type responseKey struct{ nlon, nlat, kind int }

// tableFor returns the layout for the variable kinds on decomposition d.
func tableFor(p *sim.Proc, d grid.Decomp, kinds []Kind, balanced bool) *lineTable {
	b := make([]byte, len(kinds))
	for i, k := range kinds {
		b[i] = byte(k)
	}
	return sim.Shared(p, tableKey{d.Spec, d.Py, string(b), balanced},
		func() *lineTable { return newLineTable(p, d, kinds, balanced) })
}

// responses returns the grid's response of each kind, indexed by kind.
func responses(p *sim.Proc, spec grid.Spec) (r [2]*response) {
	for k := range r {
		r[k] = sim.Shared(p, responseKey{spec.Nlon, spec.Nlat, k},
			func() *response { return newResponse(spec, Kind(k)) })
	}
	return r
}

func newResponse(spec grid.Spec, k Kind) *response {
	r := &response{damp: make([][]float64, spec.Nlat), kernel: make([][]float64, spec.Nlat)}
	plan, im := fft.NewPlan(spec.Nlon), make([]float64, spec.Nlon)
	for _, j := range Rows(spec, k) {
		r.damp[j] = DampingRow(spec.Nlon, spec.LatCenter(j), k.CritLat())
		r.kernel[j] = coefficients(plan, r.damp[j], im)
	}
	return r
}

// newLineTable lays out the lines of the variable kinds on d's processor
// rows.  Balancing hands them out in contiguous Eq. (3) blocks.
func newLineTable(p *sim.Proc, d grid.Decomp, kinds []Kind, balanced bool) *lineTable {
	spec, py := d.Spec, d.Py
	lines := buildLines(spec, kinds)
	n := len(lines)
	t := &lineTable{lines: lines, initOwner: make([]int, n), damp: make([][]float64, n), rows: make([]rowLines, py)}
	resp := responses(p, spec)
	for l, ln := range lines {
		t.initOwner[l] = d.RowOfLat(ln.j)
		t.damp[l] = resp[kinds[ln.v]].damp[ln.j]
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
