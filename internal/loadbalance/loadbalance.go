// Package loadbalance implements the load-balancing algorithms of the paper:
// the generic row-redistribution module used by the load-balanced FFT
// filtering (Section 3.3, Figures 2-3) and the three candidate schemes for
// balancing the Physics component (Section 3.4, Figures 4-6):
//
//   - Scheme 1: cyclic data shuffling — every processor splits its load into
//     P pieces and scatters them, guaranteeing balance at O(P^2) messages.
//   - Scheme 2: sorted greedy moves — processors are sorted by load and
//     surplus flows to deficit with a minimal number of messages, O(P), at
//     the price of global bookkeeping on every invocation.
//   - Scheme 3: iterative sorted pairwise exchange — the adopted scheme:
//     sort, pair rank i with rank P-1-i, exchange half the difference, and
//     repeat until the imbalance falls inside a tolerance.
//
// The package is pure planning: it computes who sends how much to whom from
// load measurements alone, so the same plan can be derived independently and
// identically on every rank.  Executing a plan against real field data is
// the job of the filter and physics packages.
package loadbalance

import (
	"fmt"
	"math"
	"slices"
)

// Average returns the mean of loads, the paper's AverageLoad.
func Average(loads []float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range loads {
		sum += v
	}
	return sum / float64(len(loads))
}

// Imbalance returns the paper's percentage-of-load-imbalance as a fraction:
// (MaxLoad - AverageLoad) / AverageLoad.  A perfectly balanced distribution
// returns 0; the all-on-one-processor distribution over P processors
// returns P-1.
func Imbalance(loads []float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	avg := Average(loads)
	if avg == 0 {
		return 0
	}
	max := loads[0]
	for _, v := range loads[1:] {
		if v > max {
			max = v
		}
	}
	return (max - avg) / avg
}

// MinMax returns the smallest and largest load.
func MinMax(loads []float64) (min, max float64) {
	if len(loads) == 0 {
		return 0, 0
	}
	min, max = loads[0], loads[0]
	for _, v := range loads[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Move transfers Amount units of load from processor Src to processor Dst.
type Move struct {
	Src, Dst int
	Amount   float64
}

// Apply returns a copy of loads with the moves applied.
func Apply(loads []float64, moves []Move) []float64 {
	out := append([]float64(nil), loads...)
	for _, m := range moves {
		out[m.Src] -= m.Amount
		out[m.Dst] += m.Amount
	}
	return out
}

// PlanCost summarizes the communication a plan implies: the number of
// point-to-point messages and the total transferred load volume.
func PlanCost(moves []Move) (messages int, volume float64) {
	for _, m := range moves {
		if m.Amount > 0 {
			messages++
			volume += m.Amount
		}
	}
	return messages, volume
}

// --- Generic integer row balancing (filter module, Eq. 3) ---------------

// Targets splits total indivisible items over p processors as evenly as
// possible: every processor receives floor(total/p) items and the first
// total%p processors receive one extra — the paper's Eq. (3) allocation.
func Targets(total, p int) []int {
	if p <= 0 {
		panic(fmt.Sprintf("loadbalance: invalid processor count %d", p))
	}
	if total < 0 {
		panic(fmt.Sprintf("loadbalance: negative total %d", total))
	}
	base, rem := total/p, total%p
	t := make([]int, p)
	for i := range t {
		t[i] = base
		if i < rem {
			t[i]++
		}
	}
	return t
}

// IntMove transfers Count items from processor Src to processor Dst.
type IntMove struct {
	Src, Dst, Count int
}

// PlanRows computes the moves that turn the per-processor item counts into
// the balanced Targets distribution.  The plan is deterministic (surplus
// processors in index order feed deficit processors in index order), so
// every rank derives the identical plan from the same counts — no extra
// communication is needed to agree on it.
func PlanRows(counts []int) ([]IntMove, []int) {
	total := 0
	for _, c := range counts {
		if c < 0 {
			panic(fmt.Sprintf("loadbalance: negative count %d", c))
		}
		total += c
	}
	targets := Targets(total, len(counts))
	var moves []IntMove
	deficitIdx := 0
	for src := range counts {
		surplus := counts[src] - targets[src]
		for surplus > 0 {
			for deficitIdx < len(counts) && counts[deficitIdx] >= targets[deficitIdx] {
				deficitIdx++
			}
			if deficitIdx == len(counts) {
				panic("loadbalance: internal error: surplus without deficit")
			}
			dst := deficitIdx
			need := targets[dst] - counts[dst]
			n := min(surplus, need)
			moves = append(moves, IntMove{Src: src, Dst: dst, Count: n})
			counts[src] -= n
			counts[dst] += n
			surplus -= n
		}
	}
	return moves, targets
}

// --- Scheme 1: cyclic data shuffling (Figure 4) --------------------------

// CyclicShuffleInto returns the scheme-1 plan: every processor divides its
// local load into P equal pieces and sends piece j to processor j, keeping
// its own piece.  The result is exactly balanced whenever the load within
// each processor is uniformly divisible, at the cost of P*(P-1) messages.
// The plan is appended to moves[:0] (nil is fine): with a persistent buffer
// a steady-state call allocates nothing.
func CyclicShuffleInto(moves []Move, loads []float64) []Move {
	p := len(loads)
	moves = moves[:0]
	for src := 0; src < p; src++ {
		piece := loads[src] / float64(p)
		for dst := 0; dst < p; dst++ {
			if dst == src || piece == 0 {
				continue
			}
			moves = append(moves, Move{Src: src, Dst: dst, Amount: piece})
		}
	}
	return moves
}

// --- Scheme 2: sorted greedy moves (Figure 5) ----------------------------

// SortedGreedyInto returns the scheme-2 plan: processors are ranked by load,
// then surplus load flows from the most loaded to the least loaded with the
// fewest possible messages.  granularity > 0 quantizes every transfer (the
// paper assigns integer weights to load pieces); granularity == 0 transfers
// exact amounts.  The plan is appended to moves[:0], with order as the
// ranking scratch (see sortedOrderInto; nil is fine for both): with
// persistent buffers a steady-state call allocates nothing.
func SortedGreedyInto(moves []Move, order []int, loads []float64, granularity float64) []Move {
	p := len(loads)
	moves = moves[:0]
	if p == 0 {
		return moves
	}
	avg := Average(loads)
	// Rank processors by load (descending), original index as tiebreak —
	// the "new node id through a sorting of all local loads" of Fig. 5B.
	order = sortedOrderInto(order, loads)
	// give walks down from the richest and take up from the poorest; a
	// processor's remaining difference (positive = surplus) only changes
	// while it is the current giver or taker, so two running values carry
	// the whole state.
	give, take := 0, p-1
	gdiff, tdiff := loads[order[give]]-avg, loads[order[take]]-avg
	nextGive := func() {
		give++
		gdiff = loads[order[give]] - avg
	}
	nextTake := func() {
		take--
		tdiff = loads[order[take]] - avg
	}
	for give < take {
		if gdiff <= 0 {
			nextGive()
			continue
		}
		if tdiff >= 0 {
			nextTake()
			continue
		}
		amount := math.Min(gdiff, -tdiff)
		if granularity > 0 {
			amount = math.Floor(amount/granularity) * granularity
		}
		if amount <= 0 {
			// Remaining differences are below the granularity.
			if gdiff < -tdiff {
				nextGive()
			} else {
				nextTake()
			}
			continue
		}
		moves = append(moves, Move{Src: order[give], Dst: order[take], Amount: amount})
		gdiff -= amount
		tdiff += amount
		if gdiff <= 0 {
			nextGive()
		}
		if tdiff >= 0 {
			nextTake()
		}
	}
	return moves
}

// sortedOrderInto returns processor indices sorted by descending load, ties
// in ascending index — all ranks derive the same order — in a caller-owned
// buffer, reallocated only when its capacity is below len(loads).  The index
// tiebreak makes the order total, so an unstable sort gives the stable
// sort's permutation for every finite input (-0 and +0 tie).
func sortedOrderInto(order []int, loads []float64) []int {
	if cap(order) < len(loads) {
		order = make([]int, len(loads))
	}
	order = order[:len(loads)]
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case loads[a] > loads[b]:
			return -1
		case loads[a] < loads[b]:
			return 1
		}
		return a - b
	})
	return order
}

// --- Scheme 3: iterative sorted pairwise exchange (Figure 6) -------------

// PairwiseStepInto returns one scheme-3 round: processors are ranked by load
// and the processor of rank i exchanges with the processor of rank P-1-i,
// moving half their load difference from the richer to the poorer.
// Transfers whose amount would fall below granularity (or below tolerance)
// are skipped — "a pairwise data exchange is only needed when the load
// difference in the pair of nodes exceeds some tolerance".  The plan is
// appended to moves[:0], with order as the ranking scratch (see
// sortedOrderInto; nil is fine for both): with persistent buffers a
// steady-state call allocates nothing.
func PairwiseStepInto(moves []Move, order []int, loads []float64, granularity, tolerance float64) []Move {
	p := len(loads)
	order = sortedOrderInto(order, loads)
	moves = moves[:0]
	for i := 0; i < p/2; i++ {
		hi, lo := order[i], order[p-1-i]
		diff := loads[hi] - loads[lo]
		if diff <= tolerance {
			continue
		}
		amount := diff / 2
		if granularity > 0 {
			amount = math.Floor(amount/granularity) * granularity
		}
		if amount <= 0 {
			continue
		}
		moves = append(moves, Move{Src: hi, Dst: lo, Amount: amount})
	}
	return moves
}

// BalanceResult records one scheme-3 iteration for reporting: the paper's
// Tables 1-3 are exactly this history.
type BalanceResult struct {
	// Iteration 0 is the initial state; iteration i > 0 is the state
	// after the i-th sort-and-exchange round.
	Iteration int
	MaxLoad   float64
	MinLoad   float64
	// Imbalance is (max-avg)/avg as a fraction.
	Imbalance float64
	// Moves holds the exchanges performed to reach this state (nil for
	// iteration 0).
	Moves []Move
}

// Pairwise iterates scheme 3 until the imbalance is at most tol (a
// fraction) or maxIter rounds have run, and returns the per-iteration
// history including the initial state.  granularity quantizes transfers as
// in PairwiseStepInto.
func Pairwise(loads []float64, granularity, tol float64, maxIter int) []BalanceResult {
	cur := append([]float64(nil), loads...)
	minL, maxL := MinMax(cur)
	history := []BalanceResult{{
		Iteration: 0, MaxLoad: maxL, MinLoad: minL, Imbalance: Imbalance(cur),
	}}
	for it := 1; it <= maxIter; it++ {
		if Imbalance(cur) <= tol {
			break
		}
		moves := PairwiseStepInto(nil, nil, cur, granularity, 0)
		if len(moves) == 0 {
			break // converged to within granularity
		}
		cur = Apply(cur, moves)
		minL, maxL = MinMax(cur)
		history = append(history, BalanceResult{
			Iteration: it, MaxLoad: maxL, MinLoad: minL,
			Imbalance: Imbalance(cur), Moves: moves,
		})
	}
	return history
}
