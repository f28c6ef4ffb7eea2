package physics

import (
	"fmt"
	"slices"

	"agcm/internal/comm"
	"agcm/internal/grid"
)

// Scheme selects the physics load-balancing strategy of Section 3.4.
type Scheme int

const (
	// None runs every column on its home processor (the original code).
	None Scheme = iota
	// Shuffle is scheme 1: cyclic all-to-all data shuffling (Figure 4).
	Shuffle
	// Greedy is scheme 2: sorted greedy surplus-to-deficit moves (Figure 5).
	Greedy
	// Pairwise is scheme 3, the adopted one: iterative sorted pairwise
	// exchange (Figure 6).
	Pairwise
)

// String returns the scheme name.
func (s Scheme) String() string {
	switch s {
	case None:
		return "none"
	case Shuffle:
		return "shuffle"
	case Greedy:
		return "greedy"
	case Pairwise:
		return "pairwise"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// SchemeByName returns the scheme whose String() form matches name.  Every
// scheme round-trips: SchemeByName(s.String()) == s.
func SchemeByName(name string) (Scheme, error) {
	for _, s := range []Scheme{None, Shuffle, Greedy, Pairwise} {
		if name == s.String() {
			return s, nil
		}
	}
	return 0, fmt.Errorf("physics: unknown scheme %q (none, shuffle, greedy, pairwise)", name)
}

// User tags for the balancing traffic.
const (
	tagColumns = 31 + iota // shipped column inputs (one tag per round added)
	tagResults = 61
	maxRounds  = 8
)

// packBookkeepingFlops is the per-column pack/unpack overhead charged to the
// clock — the "substantial amount of local bookkeeping" the paper warns
// about for schemes that move data.
const packBookkeepingFlops = 24

// Runner executes the Physics component on one rank with optional load
// balancing by real column movement: estimate loads from the previous pass,
// plan identical transfers on every rank, ship columns, compute them where
// they land, and return the results to their home subdomains.
//
// A Runner owns every buffer its step needs and refreshes them in place, so
// a steady-state Step allocates nothing on the host side of the model; what
// still can allocate is the receiver's payload pool in sim, when a message
// has a length that rank has not seen before.
type Runner struct {
	Model  *Model
	world  *comm.Comm
	cart   *comm.Cart2D
	local  grid.Local
	scheme Scheme
	rounds int

	myPrevFlops  float64
	haveEstimate bool

	// Persistent column storage: the column list, the structs and their
	// T/Q profiles all live in arenas refreshed in place each step.
	cols     []*Column
	colArena []Column
	tqArena  []float64
	held     []*Column

	// Columns received from other ranks are rebuilt in these arenas, sized
	// once per step from the plan.
	foreign   []Column
	foreignTQ []float64

	// Load-estimate exchange staging: gOut[i] is the one-float window
	// loads[i:i+1], so the allgather lands straight in loads.
	loadBuf []float64
	loads   []float64
	gOut    [][]float64

	planner       *planner
	flopsByOrigin []float64 // flops computed here, by column origin
	fromOrigin    []int     // foreign columns held here, by origin

	// Message staging.  Everything is sent with SendCopy, which copies
	// before it returns, so one pack buffer serves every message of a step.
	packBuf, recvBuf []float64
}

// NewRunner builds a physics runner.  rounds is the number of balancing
// rounds per step (the paper applies scheme 3 twice); it is ignored by
// None, Shuffle and Greedy.
func NewRunner(world *comm.Comm, cart *comm.Cart2D, local grid.Local,
	model *Model, scheme Scheme, rounds int) *Runner {
	if rounds < 1 {
		rounds = 1
	}
	if rounds > maxRounds {
		rounds = maxRounds
	}
	if scheme != Pairwise {
		rounds = 1
	}
	return &Runner{Model: model, world: world, cart: cart, local: local,
		scheme: scheme, rounds: rounds}
}

// initBalancing builds the planner and the per-rank tables of the balanced
// path on the first step that balances.  A Runner that never balances —
// scheme None, a single rank — pays for none of it, and NewRunner stays
// small enough to inline, which lets a caller keep its Runner on the stack.
func (r *Runner) initBalancing() {
	n := r.world.Size()
	r.planner = newPlanner(r.local.Decomp, r.scheme, r.rounds)
	r.loads = make([]float64, n+1)
	r.loads, r.loadBuf = r.loads[:n], r.loads[n:]
	r.gOut = make([][]float64, n)
	for i := range r.gOut {
		r.gOut[i] = r.loads[i : i+1 : i+1]
	}
	r.flopsByOrigin = make([]float64, n)
	r.fromOrigin = make([]int, n)
}

// Scheme returns the configured balancing scheme.
func (r *Runner) Scheme() Scheme { return r.scheme }

// PrevLoadSeconds returns the virtual seconds this rank's own columns cost
// during the previous step — the load estimate the balancer works from.
func (r *Runner) PrevLoadSeconds() float64 {
	return r.world.Proc().Model().FlopSeconds(r.myPrevFlops)
}

// Step runs one physics step over the T and Q fields, balancing per the
// configured scheme.  Collective: all ranks call it each step.
func (r *Runner) Step(T, Q *grid.Field, step int) {
	p := r.world.Proc()
	cols := r.extractColumns(T, Q)

	if r.scheme == None || !r.haveEstimate || r.world.Size() == 1 {
		total := 0.0
		for _, c := range cols {
			f := r.Model.Compute(c, step)
			p.Compute(f)
			total += f
		}
		r.myPrevFlops = total
		r.haveEstimate = true
		r.writeBack(cols, T, Q)
		return
	}

	// --- 1. Share the previous-pass load estimates. ---
	if r.planner == nil {
		r.initBalancing()
	}
	r.loadBuf[0] = r.PrevLoadSeconds()
	r.world.AllgathervInto(r.loadBuf, r.gOut)

	// --- 2. Plan transfers; identical on every rank. ---
	transfers := r.planner.plan(r.loads)

	// --- 3. Execute the column movements round by round. ---
	me := r.world.Rank()
	incoming := 0
	for _, t := range transfers {
		if t.dst == me {
			incoming += t.count
		}
	}
	r.resetForeign(incoming)
	held := append(r.held[:0], cols...)
	for _, t := range transfers {
		tag := tagColumns + t.round
		switch me {
		case t.src:
			nk := len(held) - t.count
			r.packBuf = packInputs(r.packBuf, held[nk:])
			held = held[:nk]
			r.world.SendCopy(t.dst, tag, r.packBuf)
			p.Compute(packBookkeepingFlops * float64(t.count))
		case t.dst:
			r.recvBuf = r.world.RecvInto(t.src, tag, r.recvBuf)
			before := len(held)
			held = r.unpackInputs(held, r.recvBuf)
			p.Compute(packBookkeepingFlops * float64(len(held)-before))
		}
	}
	r.held = held // retain the grown backing array for the next step

	// --- 4. Compute every held column where it landed. ---
	flopsByOrigin, fromOrigin := r.flopsByOrigin, r.fromOrigin
	for i := range flopsByOrigin {
		flopsByOrigin[i], fromOrigin[i] = 0, 0
	}
	for _, c := range held {
		f := r.Model.Compute(c, step)
		p.Compute(f)
		flopsByOrigin[c.Origin] += f
		if c.Origin == me {
			// Own columns normally share pointers with cols, but a
			// column relayed back home arrives as a fresh struct:
			// re-link it so its result is not lost.
			cols[c.Index] = c
		} else {
			fromOrigin[c.Origin]++
		}
	}

	// --- 5. Return results to their home subdomains. ---
	for origin, count := range fromOrigin {
		if count == 0 {
			continue
		}
		r.packBuf = packResults(r.packBuf, held, origin)
		r.packBuf = append(r.packBuf, flopsByOrigin[origin])
		r.world.SendCopy(origin, tagResults, r.packBuf)
		p.Compute(packBookkeepingFlops * float64(count))
	}
	// Who holds my columns now?  The holdings simulation says exactly.
	myFlops := flopsByOrigin[me]
	for holder := 0; holder < r.world.Size(); holder++ {
		if holder == me || !r.planner.hold.holds(holder, me) {
			continue
		}
		r.recvBuf = r.world.RecvInto(holder, tagResults, r.recvBuf)
		buf := r.recvBuf
		myFlops += buf[len(buf)-1]
		r.unpackResults(buf[:len(buf)-1], cols)
	}
	// Columns I computed myself (own or foreign) already mutated in
	// place; own results for own columns need no copying because held
	// shares pointers with cols.
	r.myPrevFlops = myFlops
	r.writeBack(cols, T, Q)
}

// extractColumns builds the local column list in the canonical (j, i)
// order.  The structs and their profile slices live in per-Runner arenas
// refreshed in place, so steady-state extraction allocates nothing; the
// pointer table is re-seeded each step because balancing may have swapped
// foreign column structs into it.
func (r *Runner) extractColumns(T, Q *grid.Field) []*Column {
	nlat, nlon, nl := r.local.Nlat(), r.local.Nlon(), r.local.Nlayers()
	ncols := nlat * nlon
	if r.cols == nil {
		r.cols = make([]*Column, ncols)
		r.colArena = make([]Column, ncols)
		r.tqArena = make([]float64, 2*ncols*nl)
		for idx := range r.colArena {
			r.colArena[idx].T = r.tqArena[2*idx*nl : (2*idx+1)*nl]
			r.colArena[idx].Q = r.tqArena[(2*idx+1)*nl : (2*idx+2)*nl]
		}
	}
	me := r.world.Rank()
	for j := 0; j < nlat; j++ {
		for i := 0; i < nlon; i++ {
			idx := j*nlon + i
			c := &r.colArena[idx]
			c.Origin = me
			c.Index = idx
			c.J = r.local.GlobalLat(j)
			c.I = r.local.GlobalLon(i)
			copy(c.T, T.Column(j, i))
			copy(c.Q, Q.Column(j, i))
			r.cols[idx] = c
		}
	}
	return r.cols
}

// writeBack stores the (possibly remotely computed) column profiles into
// the local fields.
func (r *Runner) writeBack(cols []*Column, T, Q *grid.Field) {
	nlon := r.local.Nlon()
	for _, c := range cols {
		j, i := c.Index/nlon, c.Index%nlon
		copy(T.Column(j, i), c.T)
		copy(Q.Column(j, i), c.Q)
	}
}

// packInputs serializes columns for shipment into buf[:0]: per column J, I,
// Origin, Index, then the T and Q profiles.
func packInputs(buf []float64, cols []*Column) []float64 {
	buf = buf[:0]
	for _, c := range cols {
		buf = append(buf, float64(c.J), float64(c.I), float64(c.Origin), float64(c.Index))
		buf = append(buf, c.T...)
		buf = append(buf, c.Q...)
	}
	return buf
}

// resetForeign empties the foreign-column arenas and makes room for n
// columns, so unpackInputs never grows them while held points into them.
func (r *Runner) resetForeign(n int) {
	r.foreign = slices.Grow(r.foreign[:0], n)
	r.foreignTQ = slices.Grow(r.foreignTQ[:0], 2*n*r.local.Nlayers())
}

// unpackInputs rebuilds the shipped columns of buf in the foreign-column
// arenas and appends them to held.
func (r *Runner) unpackInputs(held []*Column, buf []float64) []*Column {
	nl := r.local.Nlayers()
	stride := 4 + 2*nl
	if len(buf)%stride != 0 {
		panic(fmt.Sprintf("physics: column message of %d values not divisible by %d", len(buf), stride))
	}
	for off := 0; off < len(buf); off += stride {
		at := len(r.foreignTQ)
		r.foreignTQ = append(r.foreignTQ, buf[off+4:off+stride]...)
		r.foreign = append(r.foreign, Column{
			J: int(buf[off]), I: int(buf[off+1]),
			Origin: int(buf[off+2]), Index: int(buf[off+3]),
			T: r.foreignTQ[at : at+nl : at+nl],
			Q: r.foreignTQ[at+nl : at+2*nl : at+2*nl],
		})
		held = append(held, &r.foreign[len(r.foreign)-1])
	}
	return held
}

// packResults serializes the computed columns of one origin for the trip
// home into buf[:0]: per column Index, then T and Q.
func packResults(buf []float64, cols []*Column, origin int) []float64 {
	buf = buf[:0]
	for _, c := range cols {
		if c.Origin != origin {
			continue
		}
		buf = append(buf, float64(c.Index))
		buf = append(buf, c.T...)
		buf = append(buf, c.Q...)
	}
	return buf
}

// unpackResults applies returned column profiles to the home column list.
func (r *Runner) unpackResults(buf []float64, cols []*Column) {
	nl := r.local.Nlayers()
	stride := 1 + 2*nl
	if len(buf)%stride != 0 {
		panic(fmt.Sprintf("physics: result message of %d values not divisible by %d", len(buf), stride))
	}
	for off := 0; off < len(buf); off += stride {
		idx := int(buf[off])
		c := cols[idx]
		copy(c.T, buf[off+1:off+1+nl])
		copy(c.Q, buf[off+1+nl:off+stride])
	}
}
