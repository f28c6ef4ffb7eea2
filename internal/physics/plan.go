package physics

import (
	"slices"

	"agcm/internal/grid"
	"agcm/internal/loadbalance"
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

// holds reports whether rank holds at least one column of origin.
func (h *holdings) holds(rank, origin int) bool {
	for _, s := range h.list(rank) {
		if s.origin == origin && s.count > 0 {
			return true
		}
	}
	return false
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
// given load shape a plan allocates nothing.
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
}

func newPlanner(d grid.Decomp, scheme Scheme, rounds int) *planner {
	n := d.Py * d.Px
	pl := &planner{scheme: scheme, rounds: rounds,
		counts: make([]int, n), cur: make([]float64, n), order: make([]int, n),
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
// every rank computes the identical plan.  The returned transfers and
// pl.hold are valid until the next call.
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
