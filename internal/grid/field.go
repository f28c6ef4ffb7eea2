package grid

import "fmt"

// Field is one rank's halo-padded storage for a three-dimensional physical
// variable on its subdomain.  The interior is Nlat x Nlon x Nlayers; a halo
// of ghost rows/columns surrounds it in the horizontal.  The vertical index
// is innermost, so a grid column is contiguous in memory.
type Field struct {
	local Local
	halo  int
	// strides
	nlonP int // padded longitude extent = Nlon + 2*halo
	nl    int
	data  []float64
}

// NewField allocates a zeroed field on subdomain l with the given halo width.
func NewField(l Local, halo int) *Field {
	if halo < 0 {
		panic(fmt.Sprintf("grid: negative halo %d", halo))
	}
	nlatP := l.Nlat() + 2*halo
	nlonP := l.Nlon() + 2*halo
	return &Field{
		local: l,
		halo:  halo,
		nlonP: nlonP,
		nl:    l.Nlayers(),
		data:  make([]float64, nlatP*nlonP*l.Nlayers()),
	}
}

// Local returns the subdomain the field lives on.
func (f *Field) Local() Local { return f.local }

// index maps local interior coordinates (j latitude, i longitude, k layer),
// where j and i may extend halo cells outside the interior, to a flat offset.
func (f *Field) index(j, i, k int) int {
	return ((j+f.halo)*f.nlonP+(i+f.halo))*f.nl + k
}

// At returns the value at local interior coordinates (j, i, k).  Halo cells
// are addressed with j in [-halo, Nlat+halo) and i likewise.
func (f *Field) At(j, i, k int) float64 { return f.data[f.index(j, i, k)] }

// Set writes the value at local interior coordinates (j, i, k).
func (f *Field) Set(j, i, k int, v float64) { f.data[f.index(j, i, k)] = v }

// Add accumulates into the value at (j, i, k).
func (f *Field) Add(j, i, k int, v float64) { f.data[f.index(j, i, k)] += v }

// Column returns the contiguous vertical column at (j, i) as a mutable
// slice of length Nlayers.
func (f *Field) Column(j, i int) []float64 { return f.cols(j, i, 1) }

// RowData returns the padded storage of latitude row j (halo columns
// included) as one contiguous mutable slice: element (i, k) of the row lives
// at offset (i+halo)*Nlayers + k, halo being the width the field was made
// with.  Stencil loops use it to index rows directly instead of paying At's
// offset arithmetic per point.
func (f *Field) RowData(j int) []float64 { return f.rows(j, 1) }

// rows returns the n padded latitude rows from j, halo columns included:
// one contiguous span, capped at its length so an append into it cannot
// run on into the next row.
func (f *Field) rows(j, n int) []float64 {
	lo := (j + f.halo) * f.nlonP * f.nl
	hi := lo + n*f.nlonP*f.nl
	return f.data[lo:hi:hi]
}

// cols returns the n grid columns of latitude row j from longitude i, each
// Nlayers floats: one contiguous span, capped at its length.
func (f *Field) cols(j, i, n int) []float64 {
	lo := f.index(j, i, 0)
	hi := lo + n*f.nl
	return f.data[lo:hi:hi]
}

// Fill sets every interior and halo cell to v.
func (f *Field) Fill(v float64) {
	for idx := range f.data {
		f.data[idx] = v
	}
}

// CopyFrom copies the full padded contents of src, which must have identical
// shape.
func (f *Field) CopyFrom(src *Field) {
	if len(src.data) != len(f.data) || src.halo != f.halo {
		panic("grid: CopyFrom shape mismatch")
	}
	copy(f.data, src.data)
}

// Clone returns a deep copy of the field.
func (f *Field) Clone() *Field {
	g := NewField(f.local, f.halo)
	copy(g.data, f.data)
	return g
}

// InteriorEqual reports whether two fields agree on every interior point to
// within tol, ignoring halos.
func (f *Field) InteriorEqual(g *Field, tol float64) bool {
	if f.local.Nlat() != g.local.Nlat() || f.local.Nlon() != g.local.Nlon() || f.nl != g.nl {
		return false
	}
	for j := 0; j < f.local.Nlat(); j++ {
		for i := 0; i < f.local.Nlon(); i++ {
			for k := 0; k < f.nl; k++ {
				d := f.At(j, i, k) - g.At(j, i, k)
				if d < -tol || d > tol {
					return false
				}
			}
		}
	}
	return true
}

// RowSlice copies interior latitude row j, layer k into dst and returns
// dst[:Nlon]; a dst with less capacity than Nlon (nil included) is replaced
// by a new one.
func (f *Field) RowSlice(j, k int, dst []float64) []float64 {
	n := f.local.Nlon()
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	row := f.cols(j, 0, n)
	for i := range dst {
		dst[i] = row[i*f.nl+k]
	}
	return dst
}

// SetRowSlice writes src, which must have length Nlon, into interior
// latitude row j, layer k.
func (f *Field) SetRowSlice(j, k int, src []float64) {
	if len(src) != f.local.Nlon() {
		panic(fmt.Sprintf("grid: SetRowSlice of %d values into a row of %d", len(src), f.local.Nlon()))
	}
	row := f.cols(j, 0, len(src))
	for i, v := range src {
		row[i*f.nl+k] = v
	}
}

// MaxAbs returns the largest absolute interior value, a cheap stability
// diagnostic.
func (f *Field) MaxAbs() float64 {
	max := 0.0
	for j := 0; j < f.local.Nlat(); j++ {
		for i := 0; i < f.local.Nlon(); i++ {
			for k := 0; k < f.nl; k++ {
				v := f.At(j, i, k)
				if v < 0 {
					v = -v
				}
				if v > max {
					max = v
				}
			}
		}
	}
	return max
}
