package physics

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"agcm/internal/grid"
	"agcm/internal/loadbalance"
	"agcm/internal/sim"
)

// segment is a run of columns sharing one origin, used to mirror every
// rank's holdings during planning.
type segment struct {
	origin, count int
}

// transfer is one concrete planned move of whole columns.
type transfer struct {
	round, src, dst, count int
}

// rankList locates one rank's holdings inside the arena: its live segments
// are arena[head : head+n], in held order, inside a region of room slots.
// room always exceeds n, so a split in popTail has a spare slot to open the
// tail into.  held is the running column count of the live segments.
type rankList struct {
	head, n, room, held int
}

// holdings mirrors which origin's columns every rank holds while a plan is
// built.  All lists share one arena: a list that outgrows its region moves
// to the arena's top with doubled room, and the arena keeps its capacity
// from one plan to the next, so steady-state planning allocates nothing.
type holdings struct {
	arena []segment
	ranks []rankList
}

// initialRoom is every rank's starting region: its own segment, two
// received ones and the spare slot — what most ranks need under the
// pairwise scheme at two rounds.
const initialRoom = 4

// reset gives every rank its own columns: one segment {rank, counts[rank]}.
func (h *holdings) reset(counts []int) {
	p := len(counts)
	h.arena = slices.Grow(h.arena[:0], p*initialRoom)[:p*initialRoom]
	h.ranks = slices.Grow(h.ranks[:0], p)[:p]
	for rank, c := range counts {
		h.ranks[rank] = rankList{head: rank * initialRoom, n: 1, room: initialRoom, held: c}
		h.arena[rank*initialRoom] = segment{origin: rank, count: c}
	}
}

// list returns the rank's live segments in held order.
func (h *holdings) list(rank int) []segment {
	l := h.ranks[rank]
	return h.arena[l.head : l.head+l.n]
}

// popTail removes the last n columns from the rank's list and returns them
// as segments in their held order.  The result is a sub-slice of the arena,
// valid until the next push to the same rank.
func (h *holdings) popTail(rank, n int) []segment {
	l := &h.ranks[rank]
	s := h.arena[l.head : l.head+l.n+1] // the live segments and the spare slot
	i, take, left := l.n, 0, n
	for left > 0 && i > 0 {
		i--
		take = min(s[i].count, left)
		left -= take
	}
	if i == l.n {
		return nil
	}
	end := l.n
	if rem := s[i].count - take; rem > 0 {
		// Segment i is split: the remainder keeps its slot and the taken
		// part opens the tail one slot up.
		copy(s[i+2:], s[i+1:end])
		s[i+1] = segment{origin: s[i].origin, count: take}
		s[i].count = rem
		i++
		end++
	}
	l.n = i
	l.held -= n - left
	return s[i:end]
}

// push appends segs to the end of the rank's list.  segs may alias the
// arena (a popTail result of another rank).
func (h *holdings) push(rank int, segs []segment) {
	l := &h.ranks[rank]
	if need := l.n + len(segs) + 1; need > l.room {
		top, room := len(h.arena), 2*need
		h.arena = slices.Grow(h.arena, room)[:top+room]
		copy(h.arena[top:], h.arena[l.head:l.head+l.n])
		l.head, l.room = top, room
	}
	copy(h.arena[l.head+l.n:], segs)
	l.n += len(segs)
	for _, s := range segs {
		l.held += s.count
	}
}

// planner converts load estimates into whole-column transfers.  It owns
// every buffer a plan needs — the holdings arena, the working loads, the
// sort order and the move and transfer lists — so after the first call on a
// given load shape a plan allocates nothing; freeze copies a plan out.
type planner struct {
	scheme Scheme
	rounds int

	counts    []int // columns owned per rank: fixed by the decomposition
	totalCols int

	hold      holdings
	cur       []float64
	order     []int
	moves     []loadbalance.Move
	transfers []transfer
	seen      []int // freeze's scratch: per origin, the last holder counted plus one
}

func newPlanner(d grid.Decomp, scheme Scheme, rounds int) *planner {
	n := d.Py * d.Px
	pl := &planner{scheme: scheme, rounds: rounds,
		counts: make([]int, n), cur: make([]float64, n), order: make([]int, n), seen: make([]int, n),
		// Room for what the sorted schemes can plan: at most one move per
		// rank and round.  Only Shuffle's all-to-all outgrows it.
		moves: make([]loadbalance.Move, 0, n), transfers: make([]transfer, 0, rounds*n)}
	for rank := range pl.counts {
		la, lb := d.LatRange(rank / d.Px)
		lo, hi := d.LonRange(rank % d.Px)
		pl.counts[rank] = (lb - la) * (hi - lo)
		pl.totalCols += pl.counts[rank]
	}
	return pl
}

// plan mirrors every rank's holdings through the scheme's moves so result
// routing needs no extra communication.  All inputs are globally known, so
// the plan is the same on every rank, and a planBoard builds it once for all
// of them.  The returned transfers and pl.hold are valid until the next
// call.
func (pl *planner) plan(loads []float64) []transfer {
	pl.hold.reset(pl.counts)
	pl.transfers = pl.transfers[:0]
	totalLoad := 0.0
	for _, v := range loads {
		totalLoad += v
	}
	perCol := totalLoad / float64(pl.totalCols)
	if perCol <= 0 {
		return pl.transfers
	}

	cur := pl.cur
	copy(cur, loads)
	for round := 0; round < pl.rounds; round++ {
		switch pl.scheme {
		case Shuffle:
			pl.moves = loadbalance.CyclicShuffleInto(pl.moves, cur)
		case Greedy:
			pl.moves = loadbalance.SortedGreedyInto(pl.moves, pl.order, cur, perCol)
		case Pairwise:
			pl.moves = loadbalance.PairwiseStepInto(pl.moves, pl.order, cur, perCol, 0)
		}
		for _, m := range pl.moves {
			cnt := int(m.Amount/perCol + 0.5)
			avail := pl.hold.ranks[m.Src].held - 1 // keep at least one
			if cnt > avail {
				cnt = avail
			}
			if cnt <= 0 {
				continue
			}
			pl.transfers = append(pl.transfers, transfer{round: round, src: m.Src, dst: m.Dst, count: cnt})
			pl.hold.push(m.Dst, pl.hold.popTail(m.Src, cnt))
			amt := float64(cnt) * perCol
			cur[m.Src] -= amt
			cur[m.Dst] += amt
		}
	}
	return pl.transfers
}

// frozenPlan is one plan copied out of its planner, read-only from then on:
// the loads it was planned from, its transfers, and per origin the ranks
// that hold its columns away from home.
type frozenPlan struct {
	loads     []float64
	transfers []transfer
	holderAt  []int // origin o's columns are held by holders[holderAt[o]:holderAt[o+1]]
	holders   []int // ascending per origin, never the origin itself
}

// holdersOf returns, ascending, the ranks other than origin that hold at
// least one of origin's columns.
func (f *frozenPlan) holdersOf(origin int) []int {
	return f.holders[f.holderAt[origin]:f.holderAt[origin+1]]
}

// freeze copies the plan the last call to plan built, from loads, into f,
// reusing f's storage: three allocations into an empty f, whatever the mesh,
// and none once f has held a plan that moved as many segments.
func (pl *planner) freeze(f *frozenPlan, loads []float64) {
	n, nsegs := len(pl.counts), 0
	for _, l := range pl.hold.ranks {
		nsegs += l.n
	}
	f.loads = append(f.loads[:0], loads...)
	f.transfers = append(f.transfers[:0], pl.transfers...)
	// A rank holding an origin's columns holds a segment of them, so the
	// holder lists fit in nsegs slots.
	ints := f.holderAt[:cap(f.holderAt)]
	if len(ints) < n+1+nsegs {
		ints = make([]int, n+1+nsegs)
	}
	f.holderAt = ints[:n+1]
	clear(f.holderAt)
	// Count each origin's holders, then place them at per-origin cursors.  A
	// holder may meet one origin in several segments; it is listed once.
	seen := pl.seen
	clear(seen)
	for holder := range n {
		for _, s := range pl.hold.list(holder) {
			if s.origin != holder && s.count > 0 && seen[s.origin] != holder+1 {
				seen[s.origin] = holder + 1
				f.holderAt[s.origin+1]++
			}
		}
	}
	for o := range n {
		f.holderAt[o+1] += f.holderAt[o]
	}
	f.holders = ints[n+1 : n+1+f.holderAt[n]]
	next := seen
	copy(next, f.holderAt[:n])
	for holder := range n {
		for _, s := range pl.hold.list(holder) {
			at := next[s.origin]
			if s.origin != holder && s.count > 0 && (at == f.holderAt[s.origin] || f.holders[at-1] != holder) {
				f.holders[at] = holder
				next[s.origin]++
			}
		}
	}
}

// planBoard shares the plans of one shape — grid, mesh, scheme, rounds —
// between every Runner of that shape on one machine.  After the load
// allgather every rank holds the same loads bit for bit, and a plan is a
// pure function of the shape and the loads, so the first rank to ask builds
// the plan and every other rank reads it: a hit requires every load to be
// bit-equal, so it returns exactly the plan the rank would have built.
// Nothing a virtual machine sees changes.
//
// A board publishes one plan, the latest, and each plan is fresh and never
// written again, so a rank still reading the last one is never disturbed.
// That serves a machine whole: a rank asks for step s+1's plan only after
// every rank has sent its step-s+1 load, which each does after it has
// finished reading step s's plan.
type planBoard struct {
	last atomic.Pointer[frozenPlan]

	mu sync.Mutex
	pl *planner // builds every plan of the shape; guarded by mu
}

// planShape keys a machine's boards: everything a plan depends on besides
// the loads.  The plan reads only the column counts of the mesh, so the
// number of layers is not part of it.
type planShape struct {
	nlon, nlat, py, px int
	scheme             Scheme
	rounds             int
}

// boardFor returns the board of the shape on p's machine.
func boardFor(p *sim.Proc, d grid.Decomp, scheme Scheme, rounds int) *planBoard {
	key := planShape{d.Spec.Nlon, d.Spec.Nlat, d.Py, d.Px, scheme, rounds}
	return sim.Shared(p, key, func() *planBoard { return &planBoard{pl: newPlanner(d, scheme, rounds)} })
}

// planFor returns the plan for loads: the published one if it was planned
// from those loads, else built under the lock — after a second look, since
// another rank may have built it while this one waited — and published.
func (b *planBoard) planFor(loads []float64) *frozenPlan {
	if f := b.last.Load(); f != nil && bitsEqual(f.loads, loads) {
		return f
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if f := b.last.Load(); f != nil && bitsEqual(f.loads, loads) {
		return f
	}
	f := new(frozenPlan)
	b.pl.plan(loads)
	b.pl.freeze(f, loads)
	b.last.Store(f)
	return f
}

// bitsEqual reports whether a and b hold the same float64 bit patterns: -0
// differs from +0, and a NaN equals only its own payload.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
