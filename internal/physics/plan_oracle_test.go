package physics

import (
	"fmt"
	"math/rand"
	"testing"

	"agcm/internal/grid"
	"agcm/internal/loadbalance"
)

// The planner this package shipped before plan.go, kept verbatim (names
// prefixed, receiver fields passed as arguments) as the reference the
// in-place planner must reproduce: fresh slices for every rank's holdings,
// a prepending popTail and a held count recounted per move.

func oraclePlan(d grid.Decomp, scheme Scheme, rounds int, loads []float64) ([]transfer, [][]segment) {
	n := d.Py * d.Px
	counts := make([]int, n)
	totalCols := 0
	for rank := 0; rank < n; rank++ {
		row, col := rank/d.Px, rank%d.Px
		la, lb := d.LatRange(row)
		lo, hi := d.LonRange(col)
		counts[rank] = (lb - la) * (hi - lo)
		totalCols += counts[rank]
	}
	totalLoad := 0.0
	for _, v := range loads {
		totalLoad += v
	}
	perCol := totalLoad / float64(totalCols)
	if perCol <= 0 {
		return nil, oracleInitialHoldings(counts)
	}

	holdings := oracleInitialHoldings(counts)
	cur := append([]float64(nil), loads...)
	var transfers []transfer
	for round := 0; round < rounds; round++ {
		var moves []loadbalance.Move
		switch scheme {
		case Shuffle:
			moves = loadbalance.CyclicShuffleInto(nil, cur)
		case Greedy:
			moves = loadbalance.SortedGreedyInto(nil, nil, cur, perCol)
		case Pairwise:
			moves = loadbalance.PairwiseStepInto(nil, nil, cur, perCol, 0)
		}
		for _, m := range moves {
			cnt := int(m.Amount/perCol + 0.5)
			avail := oracleHeldCount(holdings[m.Src]) - 1 // keep at least one
			if cnt > avail {
				cnt = avail
			}
			if cnt <= 0 {
				continue
			}
			transfers = append(transfers, transfer{round: round, src: m.Src, dst: m.Dst, count: cnt})
			moved := oraclePopTail(&holdings[m.Src], cnt)
			holdings[m.Dst] = append(holdings[m.Dst], moved...)
			amt := float64(cnt) * perCol
			cur[m.Src] -= amt
			cur[m.Dst] += amt
		}
	}
	return transfers, holdings
}

func oracleInitialHoldings(counts []int) [][]segment {
	h := make([][]segment, len(counts))
	for rank, c := range counts {
		h[rank] = []segment{{origin: rank, count: c}}
	}
	return h
}

func oracleHeldCount(segs []segment) int {
	n := 0
	for _, s := range segs {
		n += s.count
	}
	return n
}

// oraclePopTail removes the last n columns from a holdings list and returns
// them as segments in their held order.
func oraclePopTail(segs *[]segment, n int) []segment {
	s := *segs
	var tail []segment
	for n > 0 && len(s) > 0 {
		last := &s[len(s)-1]
		take := last.count
		if take > n {
			take = n
		}
		tail = append([]segment{{origin: last.origin, count: take}}, tail...)
		last.count -= take
		n -= take
		if last.count == 0 {
			s = s[:len(s)-1]
		}
	}
	*segs = s
	return tail
}

// loadCase is one named per-rank load vector.
type loadCase struct {
	name  string
	loads []float64
}

// planLoadCases returns load vectors for n ranks: seeded random draws and
// the degenerate cost maps a balancer can fail on.
func planLoadCases(n int, rng *rand.Rand) []loadCase {
	fill := func(f func(rank int) float64) []float64 {
		loads := make([]float64, n)
		for rank := range loads {
			loads[rank] = f(rank)
		}
		return loads
	}
	return []loadCase{
		{"random", fill(func(int) float64 { return rng.Float64() })},
		{"random-skew", fill(func(int) float64 { return rng.ExpFloat64() * rng.ExpFloat64() })},
		{"one-rank", fill(func(rank int) float64 {
			if rank == n/3 {
				return 7.5
			}
			return 0
		})},
		{"all-equal", fill(func(int) float64 { return 0.25 })},
		{"alternating", fill(func(rank int) float64 { return 1 + 9*float64(rank%2) })},
		{"zero-total", fill(func(int) float64 { return 0 })},
	}
}

// TestPlanMatchesOracle is the differential check of the in-place planner:
// identical transfers and identical per-rank holdings for every scheme,
// round count, mesh and load map — including one-column-per-rank meshes —
// with one planner reused across all load maps of a configuration, as a
// Runner reuses its own from step to step.
func TestPlanMatchesOracle(t *testing.T) {
	full := grid.TwoByTwoPointFive(9)
	meshes := [][2]int{{1, 2}, {2, 1}, {2, 2}, {2, 3}, {3, 5}, {4, 4}, {4, 6}, {8, 8}, {8, 30}}
	rng := rand.New(rand.NewSource(13))
	for _, mesh := range meshes {
		py, px := mesh[0], mesh[1]
		oneColumn := grid.Spec{Nlon: px, Nlat: py, Nlayers: 1}
		for _, spec := range []grid.Spec{full, oneColumn} {
			d := grid.Decomp{Spec: spec, Py: py, Px: px}
			for _, scheme := range []Scheme{Shuffle, Greedy, Pairwise} {
				for rounds := 1; rounds <= maxRounds; rounds++ {
					pl := newPlanner(d, scheme, rounds)
					for _, lc := range planLoadCases(py*px, rng) {
						id := fmt.Sprintf("%dx%d/%dx%d/%s/rounds%d/%s", py, px, spec.Nlon, spec.Nlat, scheme, rounds, lc.name)
						want, wantHold := oraclePlan(d, scheme, rounds, lc.loads)
						got := pl.plan(lc.loads)
						if len(got) != len(want) {
							t.Fatalf("%s: %d transfers, oracle has %d", id, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s: transfer %d = %+v, oracle has %+v", id, i, got[i], want[i])
							}
						}
						for rank, segs := range wantHold {
							list := pl.hold.list(rank)
							if len(list) != len(segs) {
								t.Fatalf("%s: rank %d holds %+v, oracle has %+v", id, rank, list, segs)
							}
							for i := range segs {
								if list[i] != segs[i] {
									t.Fatalf("%s: rank %d holds %+v, oracle has %+v", id, rank, list, segs)
								}
							}
							if held := pl.hold.ranks[rank].held; held != oracleHeldCount(segs) {
								t.Fatalf("%s: rank %d running held count %d, segments sum to %d", id, rank, held, oracleHeldCount(segs))
							}
						}
					}
				}
			}
		}
	}
}
