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

// MaxRounds is the most balancing rounds a Runner runs per step.
const MaxRounds = 8

// User tags for the balancing traffic.
const (
	tagColumns = 31 + iota // shipped column inputs (one tag per round added)
	tagResults = 61        // above tagColumns+MaxRounds-1
)

// packBookkeepingFlops is the per-column pack/unpack overhead charged to the
// clock — the "substantial amount of local bookkeeping" the paper warns
// about for schemes that move data.
const packBookkeepingFlops = 24

// Runner executes the Physics component on one rank with optional load
// balancing by real column movement: estimate loads from the previous pass,
// read the step's one shared plan, ship columns, compute them where they
// land, and return the results to their home subdomains.
//
// A rank's own columns are never copied: a column is already contiguous in
// the T and Q fields, so it is computed in place there, packed for shipment
// from there and a returned result is unpacked into it.  Only the columns of
// other ranks live in the Runner, and every buffer is refreshed in place, so
// a steady-state Step allocates nothing on the host side of the model; what
// still can allocate is the receiver's payload pool in sim, when a message
// has a length that rank has not seen before.
type Runner struct {
	world  *comm.Comm
	local  grid.Local
	scheme Scheme
	rounds int

	myPrevFlops  float64
	haveEstimate bool

	// held lists the columns this rank holds during a step, in the order
	// they are computed: ref >= 0 is the rank's own column of that Index,
	// ref < 0 is foreign[^ref].  A step that does not balance holds the
	// rank's own columns in column order.
	held []int

	// The step's blocks of held columns (see heldLoop): held[i]'s flops land
	// in colFlops[i], which the rank charges in held order after the loop.
	// Worker w computes with models[w]; a rank that does not split the loop
	// has only models[0].
	colFlops []float64
	models   []*Model
	fields   [2]*grid.Field // T and Q of the running step
	step     int

	// Columns received from other ranks are rebuilt in these arenas, sized
	// once per step from the plan.
	foreign   []Column
	foreignTQ []float64

	// Load-estimate exchange staging: gOut[i] is the one-float window
	// loads[i:i+1], so the allgather lands straight in loads.
	loadBuf []float64
	loads   []float64
	gOut    [][]float64

	board         *planBoard
	flopsByOrigin []float64 // flops computed here, by column origin
	fromOrigin    []int     // foreign columns held here, by origin

	// Message staging.  Everything is sent with SendCopy, which copies
	// before it returns, so one pack buffer serves every message of a step.
	packBuf, recvBuf []float64
}

// NewRunner builds a physics runner.  rounds is the number of balancing
// rounds per step (the paper applies scheme 3 twice); it is ignored by
// None, Shuffle and Greedy.  The runner reads its layout from local and
// moves columns over world; it keeps no reference to cart.
func NewRunner(world *comm.Comm, cart *comm.Cart2D, local grid.Local,
	model *Model, scheme Scheme, rounds int) *Runner {
	if rounds < 1 {
		rounds = 1
	}
	if rounds > MaxRounds {
		rounds = MaxRounds
	}
	if scheme != Pairwise {
		rounds = 1
	}
	return &Runner{world: world, local: local,
		scheme: scheme, rounds: rounds, models: []*Model{model}}
}

// initBalancing finds the plan board and builds the per-rank tables of the
// balanced path on the first step that balances.  A Runner that never
// balances — scheme None, a single rank — pays for none of it, and NewRunner
// stays small enough to inline, which lets a caller keep its Runner on the
// stack.
func (r *Runner) initBalancing() {
	n := r.world.Size()
	r.board = boardFor(r.world.Proc(), r.local.Decomp, r.scheme, r.rounds)
	r.loads = make([]float64, n+1)
	r.loads, r.loadBuf = r.loads[:n], r.loads[n:]
	r.gOut = make([][]float64, n)
	for i := range r.gOut {
		r.gOut[i] = r.loads[i : i+1 : i+1]
	}
	r.flopsByOrigin = make([]float64, n)
	r.fromOrigin = make([]int, n)
}

// Reset forgets the load estimate, so the next Step runs every column at
// home as a new Runner's first Step does.  Everything else a Runner holds is
// staging that each Step refreshes before it reads it.
func (r *Runner) Reset() {
	r.myPrevFlops, r.haveEstimate = 0, false
}

// PrevLoadSeconds returns the virtual seconds this rank's own columns cost
// during the previous step — the load estimate the balancer works from.
func (r *Runner) PrevLoadSeconds() float64 {
	return r.world.Proc().Model().FlopSeconds(r.myPrevFlops)
}

// column sets c to the held column ref: a foreign column from the arena, or
// the rank's own column (canonical (j, i) order) aliasing its storage in
// the fields.
func (r *Runner) column(c *Column, T, Q *grid.Field, ref int) {
	if ref < 0 {
		*c = r.foreign[^ref]
		return
	}
	j, i := ref/r.local.Nlon(), ref%r.local.Nlon()
	c.Origin, c.Index = r.world.Rank(), ref
	c.J, c.I = r.local.GlobalLat(j), r.local.GlobalLon(i)
	c.T, c.Q = T.Column(j, i), Q.Column(j, i)
}

// heldLoop is the step's loop over blocks of held columns as a sim.Loop.
type heldLoop Runner

// Run computes blocks [lo, hi) with worker w's model.
func (h *heldLoop) Run(w, lo, hi int) {
	r := (*Runner)(h)
	m := r.models[w]
	T, Q := r.fields[0], r.fields[1]
	n := len(r.held)
	var blk [blockWidth]Column
	for at := lo * blockWidth; at < min(hi*blockWidth, n); at += blockWidth {
		nb := min(blockWidth, n-at)
		for l, ref := range r.held[at : at+nb] {
			r.column(&blk[l], T, Q, ref)
		}
		m.computeBlock(blk[:nb], r.step, r.colFlops[at:at+nb])
	}
}

// Grow gives workers up to k-1 their own model.
func (h *heldLoop) Grow(k int) {
	for len(h.models) < k {
		h.models = append(h.models, h.models[0].worker())
	}
}

// Step runs one physics step over the T and Q fields, balancing per the
// configured scheme.  Collective: all ranks call it each step.
//
// A step that does not balance — scheme None, a first step without a load
// estimate, a single rank — is a step with an empty plan: the rank holds
// its own columns and computes them, and nothing moves.
func (r *Runner) Step(T, Q *grid.Field, step int) {
	p := r.world.Proc()
	me := r.world.Rank()
	ncols := r.local.Nlat() * r.local.Nlon()
	held := slices.Grow(r.held[:0], ncols)
	for idx := 0; idx < ncols; idx++ {
		held = append(held, idx)
	}

	var plan *frozenPlan
	if r.scheme != None && r.haveEstimate && r.world.Size() > 1 {
		// --- 1. Share the previous-pass load estimates. ---
		if r.board == nil {
			r.initBalancing()
		}
		r.loadBuf[0] = r.PrevLoadSeconds()
		r.world.AllgathervInto(r.loadBuf, r.gOut)

		// --- 2. Read the step's plan, built once for every rank. ---
		plan = r.board.planFor(r.loads)

		// --- 3. Execute the column movements round by round. ---
		incoming := 0
		for _, t := range plan.transfers {
			if t.dst == me {
				incoming += t.count
			}
		}
		r.resetForeign(incoming)
		for _, t := range plan.transfers {
			tag := tagColumns + t.round
			switch me {
			case t.src:
				nk := len(held) - t.count
				r.packInputs(T, Q, held[nk:])
				held = held[:nk]
				r.world.SendCopy(t.dst, tag, r.packBuf)
				p.Compute(packBookkeepingFlops * float64(t.count))
			case t.dst:
				r.recvBuf = r.world.RecvInto(t.src, tag, r.recvBuf)
				before := len(held)
				held = r.unpackInputs(T, Q, held, r.recvBuf)
				p.Compute(packBookkeepingFlops * float64(len(held)-before))
			}
		}
		clear(r.flopsByOrigin)
		clear(r.fromOrigin)
	}
	r.held = held // retain the grown backing array for the next step

	// --- 4. Compute every held column where it landed, then charge each
	// column's flops in held order: the rank's own columns make up its load
	// estimate, foreign ones are tallied by origin for the trip home. ---
	r.colFlops = slices.Grow(r.colFlops[:0], len(held))[:len(held)]
	r.fields, r.step = [2]*grid.Field{T, Q}, step
	p.Fan((*heldLoop)(r), (len(held)+blockWidth-1)/blockWidth)
	myFlops := 0.0
	for i, f := range r.colFlops {
		p.Compute(f)
		if ref := held[i]; ref >= 0 {
			myFlops += f
		} else {
			origin := r.foreign[^ref].Origin
			r.flopsByOrigin[origin] += f
			r.fromOrigin[origin]++
		}
	}

	// --- 5. Return results to their home subdomains. ---
	if plan != nil {
		for origin, count := range r.fromOrigin {
			if count == 0 {
				continue
			}
			r.packResults(held, origin)
			r.packBuf = append(r.packBuf, r.flopsByOrigin[origin])
			r.world.SendCopy(origin, tagResults, r.packBuf)
			p.Compute(packBookkeepingFlops * float64(count))
		}
		// Who holds my columns now?  The plan lists them, ascending.
		// Columns computed here, own or foreign, were mutated where they
		// live.
		for _, holder := range plan.holdersOf(me) {
			r.recvBuf = r.world.RecvInto(holder, tagResults, r.recvBuf)
			buf := r.recvBuf
			myFlops += buf[len(buf)-1]
			r.unpackResults(T, Q, buf[:len(buf)-1])
		}
	}
	r.myPrevFlops = myFlops
	r.haveEstimate = true
}

// packInputs serializes the held columns refs for shipment into packBuf:
// per column J, I, Origin, Index, then the T and Q profiles.
func (r *Runner) packInputs(T, Q *grid.Field, refs []int) {
	buf := r.packBuf[:0]
	var c Column
	for _, ref := range refs {
		r.column(&c, T, Q, ref)
		buf = append(buf, float64(c.J), float64(c.I), float64(c.Origin), float64(c.Index))
		buf = append(buf, c.T...)
		buf = append(buf, c.Q...)
	}
	r.packBuf = buf
}

// resetForeign empties the foreign-column arenas and makes room for n
// columns, so unpackInputs never grows them while held refers into them.
func (r *Runner) resetForeign(n int) {
	r.foreign = slices.Grow(r.foreign[:0], n)
	r.foreignTQ = slices.Grow(r.foreignTQ[:0], 2*n*r.local.Nlayers())
}

// unpackInputs appends the shipped columns of buf to held.  A column of
// another rank is rebuilt in the foreign-column arenas; one of this rank's
// own, relayed back home, lands in the fields at its Index.
func (r *Runner) unpackInputs(T, Q *grid.Field, held []int, buf []float64) []int {
	nl := r.local.Nlayers()
	stride := 4 + 2*nl
	if len(buf)%stride != 0 {
		panic(fmt.Sprintf("physics: column message of %d values not divisible by %d", len(buf), stride))
	}
	me := r.world.Rank()
	for off := 0; off < len(buf); off += stride {
		origin, index := int(buf[off+2]), int(buf[off+3])
		if origin == me {
			// The record's tail — Index, T, Q — is a result record.
			r.unpackResults(T, Q, buf[off+3:off+stride])
			held = append(held, index)
			continue
		}
		at := len(r.foreignTQ)
		r.foreignTQ = append(r.foreignTQ, buf[off+4:off+stride]...)
		r.foreign = append(r.foreign, Column{
			J: int(buf[off]), I: int(buf[off+1]),
			Origin: origin, Index: index,
			T: r.foreignTQ[at : at+nl : at+nl],
			Q: r.foreignTQ[at+nl : at+2*nl : at+2*nl],
		})
		held = append(held, ^(len(r.foreign) - 1))
	}
	return held
}

// packResults serializes the computed columns of one origin for the trip
// home into packBuf: per column Index, then T and Q.
func (r *Runner) packResults(held []int, origin int) {
	buf := r.packBuf[:0]
	for _, ref := range held {
		if ref >= 0 {
			continue
		}
		if c := &r.foreign[^ref]; c.Origin == origin {
			buf = append(buf, float64(c.Index))
			buf = append(buf, c.T...)
			buf = append(buf, c.Q...)
		}
	}
	r.packBuf = buf
}

// unpackResults stores column profiles (per column Index, then T and Q)
// into the rank's own columns in the fields.
func (r *Runner) unpackResults(T, Q *grid.Field, buf []float64) {
	nl, nlon := r.local.Nlayers(), r.local.Nlon()
	stride := 1 + 2*nl
	if len(buf)%stride != 0 {
		panic(fmt.Sprintf("physics: result message of %d values not divisible by %d", len(buf), stride))
	}
	for off := 0; off < len(buf); off += stride {
		idx := int(buf[off])
		copy(T.Column(idx/nlon, idx%nlon), buf[off+1:off+1+nl])
		copy(Q.Column(idx/nlon, idx%nlon), buf[off+1+nl:off+stride])
	}
}
