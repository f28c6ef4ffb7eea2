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

// Exchanger holds one rank's staging for the halo messages that cannot be
// the field's own storage: the east-west columns, and the interior packs
// and the root's per-rank parts of gather and scatter.  The north-south
// rows need none; they are sent from and received into the field itself.
// Sends are pooled copies (comm.SendCopy), so a buffer or row is reusable as
// soon as the send returns, and every receive is checked for its exact
// length.  An Exchanger is bound to one rank's cart and must only be used
// from that rank's goroutine.
type Exchanger struct {
	cart *comm.Cart2D
	pack []float64   // staging for outgoing east-west columns and interior packs
	recv []float64   // staging for incoming east-west columns and scatter shares
	out  [][]float64 // per-rank buffers for the root's gather and scatter
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

// recvExact receives the message from c's rank src under tag into buf,
// which must be exactly the message's length.  RecvInto would silently
// grow a short buf elsewhere, and a receive in place would then leave a
// stale halo, so any other length panics.
func recvExact(c *comm.Comm, src, tag int, buf []float64) {
	if got := c.RecvInto(src, tag, buf[:0]); len(got) != len(buf) {
		panic(fmt.Sprintf("grid: halo message from rank %d (tag %d) has %d floats, want %d",
			c.WorldRank(src), tag, len(got), len(buf)))
	}
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
// exchange degenerates into a local periodic copy).
func (ex *Exchanger) Exchange(fields ...*Field) {
	for _, f := range fields {
		if f.halo == 0 {
			continue
		}
		ex.exchangeEastWest(f)
		ex.exchangeNorthSouth(f)
	}
}

// exchangeEastWest ships h interior columns each way.  A message is the h
// columns one after another, each as nlat Nlayers-float grid columns: a
// grid column is contiguous in the field but a longitude column is not, so
// the message is packed and unpacked one grid-column copy at a time.
func (ex *Exchanger) exchangeEastWest(f *Field) {
	cart := ex.cart
	h, nlat, nlon, nl := f.halo, f.local.Nlat(), f.local.Nlon(), f.nl
	if cart.Px == 1 {
		// Periodic wrap within the single subdomain.
		for j := 0; j < nlat; j++ {
			for g := 0; g < h; g++ {
				copy(f.cols(j, -1-g, 1), f.cols(j, nlon-1-g, 1))
				copy(f.cols(j, nlon+g, 1), f.cols(j, g, 1))
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
				p += copy(ex.pack[p:], f.cols(j, i0+g, 1))
			}
		}
		return ex.pack
	}
	unpack := func(src, tag, i0 int) {
		ex.recv = growFloats(ex.recv, h*nlat*nl)
		recvExact(row, src, tag, ex.recv)
		p := 0
		for g := 0; g < h; g++ {
			for j := 0; j < nlat; j++ {
				p += copy(f.cols(j, i0+g, 1), ex.recv[p:])
			}
		}
	}
	// Send my eastmost interior columns east, westmost west.  SendCopy
	// stages a pooled copy, so the one pack buffer is reusable at once.
	row.SendCopy(east, tagEast, pack(nlon-h))
	row.SendCopy(west, tagWest, pack(0))
	// West neighbour's east edge fills my west halo, and vice versa.
	unpack(west, tagEast, -h)
	unpack(east, tagWest, nlon)
}

// exchangeNorthSouth ships h rows each way at full padded width (-h ..
// nlon+h), so that corner ghost cells carry the diagonal neighbours'
// values.  Those h rows are contiguous in the field: each message is sent
// straight from them and received straight into the halo rows.
func (ex *Exchanger) exchangeNorthSouth(f *Field) {
	cart := ex.cart
	h, nlat := f.halo, f.local.Nlat()
	col := cart.Col
	north := cart.MyRow + 1
	south := cart.MyRow - 1
	if north < cart.Py {
		col.SendCopy(north, tagNorth, f.rows(nlat-h, h))
	}
	if south >= 0 {
		col.SendCopy(south, tagSouth, f.rows(0, h))
	}
	if south >= 0 {
		recvExact(col, south, tagNorth, f.rows(-h, h))
	}
	if north < cart.Py {
		recvExact(col, north, tagSouth, f.rows(nlat, h))
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
	ex.pack = growFloats(ex.pack, f.local.Points())
	for j, p := 0, 0; j < f.local.Nlat(); j++ {
		p += copy(ex.pack[p:], f.cols(j, 0, f.local.Nlon()))
	}
	if world.Rank() == 0 && ex.out == nil {
		ex.out = make([][]float64, world.Size())
	}
	parts := world.GathervInto(0, ex.pack, ex.out)
	if parts == nil {
		return nil
	}
	d := f.local.Decomp
	global := make([]float64, d.Spec.Points())
	for r, part := range parts {
		l := NewLocal(d, r/d.Px, r%d.Px)
		w := l.Nlon() * l.Nlayers()
		for j := l.Lat0; j < l.Lat1; j++ {
			part = part[copy(global[(j*d.Spec.Nlon+l.Lon0)*l.Nlayers():][:w], part):]
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
	var parts [][]float64
	if world.Rank() == 0 {
		if len(global) != d.Spec.Points() {
			panic(fmt.Sprintf("grid: Scatter global size %d, want %d", len(global), d.Spec.Points()))
		}
		if ex.out == nil {
			ex.out = make([][]float64, world.Size())
		}
		parts = ex.out
		for r := range parts {
			l := NewLocal(d, r/d.Px, r%d.Px)
			w := l.Nlon() * l.Nlayers()
			parts[r] = parts[r][:0]
			for j := l.Lat0; j < l.Lat1; j++ {
				parts[r] = append(parts[r], global[(j*d.Spec.Nlon+l.Lon0)*l.Nlayers():][:w]...)
			}
		}
	}
	ex.recv = world.ScattervInto(0, parts, ex.recv)
	w := f.local.Nlon() * f.nl
	for j := 0; j < f.local.Nlat(); j++ {
		copy(f.cols(j, 0, f.local.Nlon()), ex.recv[j*w:])
	}
}
