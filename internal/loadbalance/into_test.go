package loadbalance

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The allocating planners this package shipped before the *Into forms, kept
// verbatim (names prefixed) as the reference the in-place forms must
// reproduce move for move.

func oracleCyclicShuffle(loads []float64) []Move {
	p := len(loads)
	var moves []Move
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

func oracleSortedGreedy(loads []float64, granularity float64) []Move {
	p := len(loads)
	avg := Average(loads)
	order := oracleSortedOrder(loads)
	type node struct {
		idx  int
		diff float64 // positive = surplus
	}
	nodes := make([]node, p)
	for r, idx := range order {
		nodes[r] = node{idx: idx, diff: loads[idx] - avg}
	}
	var moves []Move
	give, take := 0, p-1 // richest gives, poorest takes
	for give < take {
		g, t := &nodes[give], &nodes[take]
		if g.diff <= 0 {
			give++
			continue
		}
		if t.diff >= 0 {
			take--
			continue
		}
		amount := math.Min(g.diff, -t.diff)
		if granularity > 0 {
			amount = math.Floor(amount/granularity) * granularity
		}
		if amount <= 0 {
			// Remaining differences are below the granularity.
			if g.diff < -t.diff {
				give++
			} else {
				take--
			}
			continue
		}
		moves = append(moves, Move{Src: g.idx, Dst: t.idx, Amount: amount})
		g.diff -= amount
		t.diff += amount
		if g.diff <= 0 {
			give++
		}
		if t.diff >= 0 {
			take--
		}
	}
	return moves
}

func oracleSortedOrder(loads []float64) []int {
	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return loads[order[a]] > loads[order[b]]
	})
	return order
}

func oraclePairwiseStep(loads []float64, granularity, tolerance float64) []Move {
	p := len(loads)
	order := oracleSortedOrder(loads)
	var moves []Move
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

// intoLoadCases returns load vectors for p processors: seeded random draws,
// many exact ties (the stable order decides), and the degenerate maps.
func intoLoadCases(p int, rng *rand.Rand) [][]float64 {
	fill := func(f func(i int) float64) []float64 {
		loads := make([]float64, p)
		for i := range loads {
			loads[i] = f(i)
		}
		return loads
	}
	return [][]float64{
		fill(func(int) float64 { return rng.Float64() * 100 }),
		fill(func(int) float64 { return rng.ExpFloat64() * rng.ExpFloat64() }),
		fill(func(int) float64 { return float64(rng.Intn(4)) }), // ties
		fill(func(i int) float64 {
			if i == p/3 {
				return 65
			}
			return 0
		}),
		fill(func(int) float64 { return 24 }),
		fill(func(i int) float64 { return 1 + 9*float64(i%2) }),
		fill(func(int) float64 { return 0 }),
		fill(func(int) float64 { return float64(rng.Intn(2)) * 7 }), // two values, many ties
		fill(func(int) float64 { // -0 and +0 tie with each other
			switch rng.Intn(3) {
			case 0:
				return math.Copysign(0, -1)
			case 1:
				return 0
			}
			return 0.5
		}),
	}
}

func sameMoves(a, b []Move) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIntoFormsMatchOracle runs every *Into form, with buffers left dirty
// by the previous call, against the allocating original.
func TestIntoFormsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var moves []Move
	var order []int
	for _, p := range []int{0, 1, 2, 3, 8, 15, 64, 240} {
		order = make([]int, p)
		for ci, loads := range intoLoadCases(p, rng) {
			for _, gran := range []float64{0, 0.5, 3} {
				if got, want := sortedOrderInto(order, loads), oracleSortedOrder(loads); len(got) != len(want) {
					t.Fatalf("p=%d case %d: order has %d entries, want %d", p, ci, len(got), len(want))
				} else {
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("p=%d case %d: order %v, oracle %v", p, ci, got, want)
						}
					}
				}
				moves = CyclicShuffleInto(moves, loads)
				if want := oracleCyclicShuffle(loads); !sameMoves(moves, want) {
					t.Fatalf("p=%d case %d: CyclicShuffleInto = %v, oracle %v", p, ci, moves, want)
				}
				moves = SortedGreedyInto(moves, order, loads, gran)
				if want := oracleSortedGreedy(loads, gran); !sameMoves(moves, want) {
					t.Fatalf("p=%d case %d gran %g: SortedGreedyInto = %v, oracle %v", p, ci, gran, moves, want)
				}
				moves = PairwiseStepInto(moves, order, loads, gran, gran/4)
				if want := oraclePairwiseStep(loads, gran, gran/4); !sameMoves(moves, want) {
					t.Fatalf("p=%d case %d gran %g: PairwiseStepInto = %v, oracle %v", p, ci, gran, moves, want)
				}
			}
		}
	}
}

// TestIntoFormsAllocFree pins the *Into forms at zero allocations once the
// caller's buffers have the room: 240 processors, as on the 8x30 mesh.
func TestIntoFormsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	loads := intoLoadCases(240, rng)[0]
	order := make([]int, len(loads))
	var moves []Move
	for name, plan := range map[string]func(){
		"CyclicShuffleInto": func() { moves = CyclicShuffleInto(moves, loads) },
		"SortedGreedyInto":  func() { moves = SortedGreedyInto(moves, order, loads, 0.5) },
		"PairwiseStepInto":  func() { moves = PairwiseStepInto(moves, order, loads, 0.5, 0) },
	} {
		plan()
		if len(moves) == 0 {
			t.Fatalf("%s planned no move", name)
		}
		if a := testing.AllocsPerRun(20, plan); a != 0 {
			t.Errorf("%s allocated %.1f times per call; want 0", name, a)
		}
	}
}
