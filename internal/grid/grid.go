// Package grid implements the AGCM's three-dimensional computational grid:
// a uniform longitude-latitude Arakawa C-mesh in the horizontal with a small
// number of vertical layers, its two-dimensional block decomposition over a
// Py x Px processor mesh, halo-padded local field storage, and the
// ghost-point exchange used by the finite-difference dynamics.
//
// Conventions: latitude rows are indexed south to north (j = 0 at the row
// nearest the south pole), longitudes west to east with periodic wraparound,
// and the vertical index k is innermost in memory so that one grid column is
// contiguous — the natural layout for column physics.
package grid

import (
	"fmt"
	"math"
)

// EarthRadius is the planetary radius in metres used for metric terms.
const EarthRadius = 6.371e6

// Gravity is the gravitational acceleration in m/s^2.
const Gravity = 9.80665

// Omega is the Earth's rotation rate in rad/s, for the Coriolis parameter.
const Omega = 7.292e-5

// Spec describes the global grid extents.
type Spec struct {
	// Nlon and Nlat are the numbers of longitude and latitude cells.
	Nlon, Nlat int
	// Nlayers is the number of vertical layers.
	Nlayers int
}

// TwoByTwoPointFive returns the paper's standard 2° x 2.5° horizontal
// resolution (144 x 90 cells) with the given number of layers (the paper
// uses 9- and 15-layer models).
func TwoByTwoPointFive(layers int) Spec {
	return Spec{Nlon: 144, Nlat: 90, Nlayers: layers}
}

// Validate reports an error for degenerate specs and for specs whose point
// count overflows int.  It divides instead of multiplying, so extents whose
// product wraps around cannot pass.
func (s Spec) Validate() error {
	if s.Nlon < 4 || s.Nlat < 4 || s.Nlayers < 1 {
		return fmt.Errorf("grid: degenerate spec %+v", s)
	}
	if s.Nlat > math.MaxInt/s.Nlon || s.Nlayers > math.MaxInt/(s.Nlon*s.Nlat) {
		return fmt.Errorf("grid: spec %+v has more points than an int holds", s)
	}
	return nil
}

// Points returns the total number of grid points Nlon*Nlat*Nlayers.
func (s Spec) Points() int { return s.Nlon * s.Nlat * s.Nlayers }

// DLon returns the longitudinal grid spacing in radians.
func (s Spec) DLon() float64 { return 2 * math.Pi / float64(s.Nlon) }

// DLat returns the latitudinal grid spacing in radians.
func (s Spec) DLat() float64 { return math.Pi / float64(s.Nlat) }

// LatCenter returns the latitude of cell-row j's centre in radians,
// from just north of the south pole (j=0) to just south of the north pole.
func (s Spec) LatCenter(j int) float64 {
	return -math.Pi/2 + (float64(j)+0.5)*s.DLat()
}

// LatEdge returns the latitude of the edge between rows j-1 and j (the
// v-point latitude on the C-grid) in radians; LatEdge(0) is the south pole.
func (s Spec) LatEdge(j int) float64 {
	return -math.Pi/2 + float64(j)*s.DLat()
}

// LonCenter returns the longitude of cell-column i's centre in radians.
func (s Spec) LonCenter(i int) float64 {
	return (float64(i) + 0.5) * s.DLon()
}

// CosLatCenter returns cos(latitude) at row j's centre, the metric factor
// that shrinks zonal grid distances toward the poles.
func (s Spec) CosLatCenter(j int) float64 { return math.Cos(s.LatCenter(j)) }

// CosLatEdge returns cos(latitude) at edge j, clamped to zero at the poles.
func (s Spec) CosLatEdge(j int) float64 {
	c := math.Cos(s.LatEdge(j))
	if j == 0 || j == s.Nlat {
		return 0
	}
	return c
}

// Coriolis returns the Coriolis parameter f = 2*Omega*sin(lat) at row j's
// centre.
func (s Spec) Coriolis(j int) float64 { return 2 * Omega * math.Sin(s.LatCenter(j)) }

// ZonalSpacing returns the physical west-east grid distance in metres at row
// j's centre.  Near the poles this shrinks toward zero — the origin of the
// CFL problem that the spectral filter exists to fix.
func (s Spec) ZonalSpacing(j int) float64 {
	return EarthRadius * s.CosLatCenter(j) * s.DLon()
}

// Decomp is a 2-D block decomposition of a Spec over a Py x Px processor
// mesh: Py processor rows in latitude, Px columns in longitude.  Every
// subdomain holds all vertical layers, per the paper's design.
type Decomp struct {
	Spec   Spec
	Py, Px int
}

// NewDecomp validates and builds a decomposition.
func NewDecomp(spec Spec, py, px int) (Decomp, error) {
	if err := spec.Validate(); err != nil {
		return Decomp{}, err
	}
	if py < 1 || px < 1 {
		return Decomp{}, fmt.Errorf("grid: invalid mesh %dx%d", py, px)
	}
	if py > spec.Nlat || px > spec.Nlon {
		return Decomp{}, fmt.Errorf("grid: mesh %dx%d exceeds grid %dx%d",
			py, px, spec.Nlat, spec.Nlon)
	}
	return Decomp{Spec: spec, Py: py, Px: px}, nil
}

// blockRange splits n cells over p blocks, spreading the remainder over the
// leading blocks, and returns the half-open range of block b.
func blockRange(n, p, b int) (lo, hi int) {
	base, rem := n/p, n%p
	lo = b*base + min(b, rem)
	size := base
	if b < rem {
		size++
	}
	return lo, lo + size
}

// LatRange returns the half-open global latitude-row range owned by
// processor row `row`.
func (d Decomp) LatRange(row int) (lo, hi int) {
	if row < 0 || row >= d.Py {
		panic(fmt.Sprintf("grid: row %d out of mesh range", row))
	}
	return blockRange(d.Spec.Nlat, d.Py, row)
}

// LonRange returns the half-open global longitude-column range owned by
// processor column `col`.
func (d Decomp) LonRange(col int) (lo, hi int) {
	if col < 0 || col >= d.Px {
		panic(fmt.Sprintf("grid: col %d out of mesh range", col))
	}
	return blockRange(d.Spec.Nlon, d.Px, col)
}

// RowOfLat returns the processor row owning global latitude row j.
func (d Decomp) RowOfLat(j int) int {
	for r := 0; r < d.Py; r++ {
		if lo, hi := d.LatRange(r); j >= lo && j < hi {
			return r
		}
	}
	panic(fmt.Sprintf("grid: latitude %d outside grid", j))
}

// Local describes one rank's subdomain.
type Local struct {
	Decomp   Decomp
	Row, Col int
	// Lat0, Lat1 and Lon0, Lon1 are the global half-open index ranges.
	Lat0, Lat1 int
	Lon0, Lon1 int
}

// NewLocal builds the subdomain view for mesh position (row, col).
func NewLocal(d Decomp, row, col int) Local {
	lat0, lat1 := d.LatRange(row)
	lon0, lon1 := d.LonRange(col)
	return Local{Decomp: d, Row: row, Col: col, Lat0: lat0, Lat1: lat1, Lon0: lon0, Lon1: lon1}
}

// Nlat returns the number of local latitude rows.
func (l Local) Nlat() int { return l.Lat1 - l.Lat0 }

// Nlon returns the number of local longitude columns.
func (l Local) Nlon() int { return l.Lon1 - l.Lon0 }

// Nlayers returns the number of vertical layers (same on every rank).
func (l Local) Nlayers() int { return l.Decomp.Spec.Nlayers }

// Points returns the number of local interior grid points.
func (l Local) Points() int { return l.Nlat() * l.Nlon() * l.Nlayers() }

// GlobalLat converts a local latitude index to a global row index.
func (l Local) GlobalLat(j int) int { return l.Lat0 + j }

// GlobalLon converts a local longitude index to a global column index.
func (l Local) GlobalLon(i int) int { return l.Lon0 + i }
