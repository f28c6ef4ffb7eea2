package grid

import (
	"fmt"

	"agcm/internal/comm"
)

// Tags used by the halo exchange and global gather/scatter.
const (
	tagEast = 100 + iota
	tagWest
	tagNorth
	tagSouth
	tagGather
	tagScatter
)

// Exchanger owns the reusable pack/unpack buffers for one rank's halo
// exchanges and gather/scatter participation, so the per-step communication
// of a long run is allocation-free at steady state.  Sends are pooled copies
// (comm.SendCopy) and receives land in persistent scratch (comm.RecvInto),
// which also removes any aliasing hazard from buffer reuse.  An Exchanger is
// bound to one rank's cart and must only be used from that rank's goroutine.
type Exchanger struct {
	cart *comm.Cart2D
	pack []float64   // staging for outgoing halo slabs and interior packs
	recv []float64   // staging for incoming halo slabs
	out  [][]float64 // per-rank receive buffers for GathervInto on the root
}

// NewExchanger creates an exchanger for this rank.  Buffers grow on first
// use to the working-set size and are reused afterwards.
func NewExchanger(cart *comm.Cart2D) *Exchanger {
	return &Exchanger{cart: cart}
}

// growFloats returns buf resized to n elements, reallocating only when the
// capacity is insufficient.  Contents are unspecified.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Exchange fills the ghost cells of every given field from the
// neighbouring subdomains: periodically in longitude, and up to the mesh
// edges in latitude (pole-side halos are left untouched for the dynamics'
// polar boundary treatment).  Corner ghost cells are filled correctly by
// ordering: the east-west exchange runs first, then the north-south
// exchange ships full-width rows including the freshly filled east-west
// halo columns, so diagonal-neighbour values arrive in two hops — the
// standard trick that avoids eight-way exchanges.
//
// The exchange posts all sends before any receive, so it is deadlock-free
// on any mesh, including meshes of width or height 1 (where the east/west
// exchange degenerates into a local periodic copy).  All packing and
// unpacking is staged in the Exchanger's persistent buffers.
func (ex *Exchanger) Exchange(fields ...*Field) {
	for _, f := range fields {
		if f.halo == 0 {
			continue
		}
		ex.exchangeEastWest(f)
		ex.exchangeNorthSouth(f)
	}
}

func (ex *Exchanger) exchangeEastWest(f *Field) {
	cart := ex.cart
	h, nlat, nlon, nl := f.halo, f.local.Nlat(), f.local.Nlon(), f.nl
	if cart.Px == 1 {
		// Periodic wrap within the single subdomain.
		for j := 0; j < nlat; j++ {
			for g := 0; g < h; g++ {
				for k := 0; k < nl; k++ {
					f.Set(j, -1-g, k, f.At(j, nlon-1-g, k))
					f.Set(j, nlon+g, k, f.At(j, g, k))
				}
			}
		}
		return
	}
	row := cart.Row
	east := (cart.MyCol + 1) % cart.Px
	west := (cart.MyCol - 1 + cart.Px) % cart.Px
	pack := func(i0 int) []float64 {
		ex.pack = growFloats(ex.pack, h*nlat*nl)
		p := 0
		for g := 0; g < h; g++ {
			for j := 0; j < nlat; j++ {
				for k := 0; k < nl; k++ {
					ex.pack[p] = f.At(j, i0+g, k)
					p++
				}
			}
		}
		return ex.pack
	}
	unpack := func(i0 int, buf []float64) {
		p := 0
		for g := 0; g < h; g++ {
			for j := 0; j < nlat; j++ {
				for k := 0; k < nl; k++ {
					f.Set(j, i0+g, k, buf[p])
					p++
				}
			}
		}
	}
	// Send my eastmost interior columns east, westmost west.  SendCopy
	// stages a pooled copy, so the single pack buffer is reusable at once.
	row.SendCopy(east, tagEast, pack(nlon-h))
	row.SendCopy(west, tagWest, pack(0))
	// West neighbour's east edge fills my west halo, and vice versa.
	ex.recv = row.RecvInto(west, tagEast, ex.recv)
	unpack(-h, ex.recv)
	ex.recv = row.RecvInto(east, tagWest, ex.recv)
	unpack(nlon, ex.recv)
}

func (ex *Exchanger) exchangeNorthSouth(f *Field) {
	cart := ex.cart
	h, nlat, nlon, nl := f.halo, f.local.Nlat(), f.local.Nlon(), f.nl
	col := cart.Col
	north := cart.MyRow + 1
	south := cart.MyRow - 1
	// Rows travel at full padded width (-h .. nlon+h) so that corner
	// ghost cells carry the diagonal neighbours' values.
	width := nlon + 2*h
	pack := func(j0 int) []float64 {
		ex.pack = growFloats(ex.pack, h*width*nl)
		p := 0
		for g := 0; g < h; g++ {
			for i := -h; i < nlon+h; i++ {
				for k := 0; k < nl; k++ {
					ex.pack[p] = f.At(j0+g, i, k)
					p++
				}
			}
		}
		return ex.pack
	}
	unpack := func(j0 int, buf []float64) {
		p := 0
		for g := 0; g < h; g++ {
			for i := -h; i < nlon+h; i++ {
				for k := 0; k < nl; k++ {
					f.Set(j0+g, i, k, buf[p])
					p++
				}
			}
		}
	}
	if north < cart.Py {
		col.SendCopy(north, tagNorth, pack(nlat-h))
	}
	if south >= 0 {
		col.SendCopy(south, tagSouth, pack(0))
	}
	if south >= 0 {
		ex.recv = col.RecvInto(south, tagNorth, ex.recv)
		unpack(-h, ex.recv)
	}
	if north < cart.Py {
		ex.recv = col.RecvInto(north, tagSouth, ex.recv)
		unpack(nlat, ex.recv)
	}
}

// Gather assembles the global interior of f on world rank 0 and returns it
// flattened as [Nlat][Nlon][Nlayers] (latitude-major, layer innermost).
// Other ranks return nil.
func Gather(world *comm.Comm, cart *comm.Cart2D, f *Field) []float64 {
	return NewExchanger(cart).Gather(world, f)
}

// Gather is the Exchanger form of the package-level Gather: the interior
// pack and the root's per-rank receive staging live in the Exchanger's
// persistent buffers, so only the returned global array is allocated per
// call (and only on the root).
func (ex *Exchanger) Gather(world *comm.Comm, f *Field) []float64 {
	d := f.local.Decomp
	ex.pack = growFloats(ex.pack, f.local.Points())
	p := 0
	for j := 0; j < f.local.Nlat(); j++ {
		for i := 0; i < f.local.Nlon(); i++ {
			for k := 0; k < f.nl; k++ {
				ex.pack[p] = f.At(j, i, k)
				p++
			}
		}
	}
	if world.Rank() == 0 && ex.out == nil {
		ex.out = make([][]float64, world.Size())
	}
	parts := world.GathervInto(0, ex.pack, ex.out)
	if parts == nil {
		return nil
	}
	spec := d.Spec
	global := make([]float64, spec.Points())
	for r, part := range parts {
		row, col := r/d.Px, r%d.Px
		lat0, lat1 := d.LatRange(row)
		lon0, lon1 := d.LonRange(col)
		q := 0
		for j := lat0; j < lat1; j++ {
			for i := lon0; i < lon1; i++ {
				for k := 0; k < spec.Nlayers; k++ {
					global[(j*spec.Nlon+i)*spec.Nlayers+k] = part[q]
					q++
				}
			}
		}
	}
	return global
}

// Scatter distributes a global flattened array (layout as returned by
// Gather) from world rank 0 into each rank's field interior.
func Scatter(world *comm.Comm, cart *comm.Cart2D, global []float64, f *Field) {
	NewExchanger(cart).Scatter(world, global, f)
}

// Scatter is the Exchanger form of the package-level Scatter, staging the
// root's per-rank parts and each rank's share in persistent buffers.
func (ex *Exchanger) Scatter(world *comm.Comm, global []float64, f *Field) {
	d := f.local.Decomp
	spec := d.Spec
	var parts [][]float64
	if world.Rank() == 0 {
		if len(global) != spec.Points() {
			panic(fmt.Sprintf("grid: Scatter global size %d, want %d", len(global), spec.Points()))
		}
		if ex.out == nil {
			ex.out = make([][]float64, world.Size())
		}
		parts = ex.out
		for r := range parts {
			row, col := r/d.Px, r%d.Px
			lat0, lat1 := d.LatRange(row)
			lon0, lon1 := d.LonRange(col)
			parts[r] = growFloats(parts[r], (lat1-lat0)*(lon1-lon0)*spec.Nlayers)
			part := parts[r]
			q := 0
			for j := lat0; j < lat1; j++ {
				for i := lon0; i < lon1; i++ {
					for k := 0; k < spec.Nlayers; k++ {
						part[q] = global[(j*spec.Nlon+i)*spec.Nlayers+k]
						q++
					}
				}
			}
		}
	}
	ex.recv = world.ScattervInto(0, parts, ex.recv)
	mine := ex.recv
	p := 0
	for j := 0; j < f.local.Nlat(); j++ {
		for i := 0; i < f.local.Nlon(); i++ {
			for k := 0; k < f.nl; k++ {
				f.Set(j, i, k, mine[p])
				p++
			}
		}
	}
}
