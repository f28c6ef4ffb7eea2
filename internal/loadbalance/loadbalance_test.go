package loadbalance

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperLoads is the worked four-node example used in Figures 5 and 6.
var paperLoads = []float64{65, 24, 38, 15}

func TestAverageAndImbalance(t *testing.T) {
	if got := Average(paperLoads); got != 35.5 {
		t.Fatalf("Average = %g, want 35.5", got)
	}
	// (65 - 35.5)/35.5 = 0.8309...
	if got := Imbalance(paperLoads); math.Abs(got-29.5/35.5) > 1e-12 {
		t.Fatalf("Imbalance = %g", got)
	}
	if Imbalance([]float64{5, 5, 5}) != 0 {
		t.Fatalf("balanced imbalance not zero")
	}
	if Imbalance(nil) != 0 || Average(nil) != 0 {
		t.Fatalf("empty inputs must yield zero")
	}
	if Imbalance([]float64{0, 0}) != 0 {
		t.Fatalf("zero loads must yield zero imbalance")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax(paperLoads)
	if lo != 15 || hi != 65 {
		t.Fatalf("MinMax = %g,%g", lo, hi)
	}
}

func TestApplyConservesLoad(t *testing.T) {
	moves := []Move{{Src: 0, Dst: 3, Amount: 10}, {Src: 2, Dst: 1, Amount: 2.5}}
	out := Apply(paperLoads, moves)
	if Average(out) != Average(paperLoads) {
		t.Fatalf("Apply changed total load")
	}
	if out[0] != 55 || out[3] != 25 || out[2] != 35.5 || out[1] != 26.5 {
		t.Fatalf("Apply = %v", out)
	}
	// Original untouched.
	if paperLoads[0] != 65 {
		t.Fatalf("Apply mutated input")
	}
}

func TestTargetsEq3(t *testing.T) {
	// Eq. (3): ceil/floor of total/N, remainder on the leading processors.
	got := Targets(10, 4)
	want := []int{3, 3, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Targets(10,4) = %v", got)
		}
	}
	got = Targets(8, 4)
	for _, v := range got {
		if v != 2 {
			t.Fatalf("Targets(8,4) = %v", got)
		}
	}
	if got := Targets(0, 3); got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("Targets(0,3) = %v", got)
	}
}

func TestTargetsPanicsOnBadInput(t *testing.T) {
	for _, fn := range []func(){
		func() { Targets(5, 0) },
		func() { Targets(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPlanRowsBalancesFilterRows(t *testing.T) {
	// The filtering scenario: high-latitude processors hold many rows to
	// filter, equatorial ones none.
	counts := []int{12, 7, 0, 0, 0, 0, 7, 12} // 38 rows over 8 procs
	moves, targets := PlanRows(append([]int(nil), counts...))
	// Replay the moves against the original counts.
	final := append([]int(nil), counts...)
	for _, m := range moves {
		if m.Count <= 0 {
			t.Fatalf("non-positive move %+v", m)
		}
		final[m.Src] -= m.Count
		final[m.Dst] += m.Count
	}
	for i := range final {
		if final[i] != targets[i] {
			t.Fatalf("proc %d ended with %d rows, want %d (moves %v)", i, final[i], targets[i], moves)
		}
		if final[i] < 38/8 || final[i] > 38/8+1 {
			t.Fatalf("proc %d rows %d outside Eq.(3) band", i, final[i])
		}
	}
}

func TestPlanRowsProperty(t *testing.T) {
	// Property: for any non-negative counts, PlanRows yields the Eq.(3)
	// distribution, never moves more than the total, and never produces a
	// move from a processor that had nothing to give.
	f := func(seed int64, pRaw uint8) bool {
		p := int(pRaw)%16 + 1
		rng := rand.New(rand.NewSource(seed))
		counts := make([]int, p)
		total := 0
		for i := range counts {
			counts[i] = rng.Intn(20)
			total += counts[i]
		}
		orig := append([]int(nil), counts...)
		moves, targets := PlanRows(counts)
		final := append([]int(nil), orig...)
		vol := 0
		for _, m := range moves {
			final[m.Src] -= m.Count
			final[m.Dst] += m.Count
			vol += m.Count
			if final[m.Src] < 0 {
				return false
			}
		}
		if vol > total {
			return false
		}
		for i := range final {
			if final[i] != targets[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCyclicShuffleScheme1(t *testing.T) {
	moves := CyclicShuffleInto(nil, paperLoads)
	// P*(P-1) messages — the scheme's drawback.
	if len(moves) != 4*3 {
		t.Fatalf("scheme 1 produced %d messages, want 12", len(moves))
	}
	out := Apply(paperLoads, moves)
	// Perfect balance for divisible loads.
	avg := Average(paperLoads)
	for i, v := range out {
		if math.Abs(v-avg) > 1e-12 {
			t.Fatalf("proc %d load %g, want %g (out=%v)", i, v, avg, out)
		}
	}
}

func TestCyclicShuffleMessageComplexityQuadratic(t *testing.T) {
	loads := make([]float64, 16)
	for i := range loads {
		loads[i] = float64(i + 1)
	}
	msgs, _ := PlanCost(CyclicShuffleInto(nil, loads))
	if msgs != 16*15 {
		t.Fatalf("scheme 1 on 16 procs: %d messages, want 240", msgs)
	}
}

func TestSortedGreedyPaperExample(t *testing.T) {
	// Figure 5: loads 65,24,38,15.  Sorting gives 65(p0),38(p2),24(p1),
	// 15(p3); avg 35.5.  With integer granularity the richest (p0) feeds
	// the poorest (p3) then the next poorest (p1); p2's small surplus
	// tops up the remainder.
	moves := SortedGreedyInto(nil, nil, paperLoads, 1)
	out := Apply(paperLoads, moves)
	// O(N) messages: at most P-1.
	if len(moves) > 3 {
		t.Fatalf("scheme 2 used %d messages, want <= 3 (moves %v)", len(moves), moves)
	}
	// Every processor within 1 unit of the average (granularity 1).
	for i, v := range out {
		if math.Abs(v-35.5) > 1.0 {
			t.Fatalf("proc %d load %g not within 1 of 35.5 (out=%v, moves=%v)", i, v, out, moves)
		}
	}
	// Load conserved.
	if Average(out) != 35.5 {
		t.Fatalf("scheme 2 lost load")
	}
}

func TestSortedGreedyExactWhenNoGranularity(t *testing.T) {
	moves := SortedGreedyInto(nil, nil, paperLoads, 0)
	out := Apply(paperLoads, moves)
	for i, v := range out {
		if math.Abs(v-35.5) > 1e-9 {
			t.Fatalf("proc %d load %g, want exactly 35.5", i, v)
		}
	}
}

func TestSortedGreedyProperty(t *testing.T) {
	// Property: scheme 2 with no granularity always reaches near-zero
	// imbalance with at most P-1 messages and conserves total load.
	f := func(seed int64, pRaw uint8) bool {
		p := int(pRaw)%20 + 2
		rng := rand.New(rand.NewSource(seed))
		loads := make([]float64, p)
		for i := range loads {
			loads[i] = rng.Float64() * 100
		}
		moves := SortedGreedyInto(nil, nil, loads, 0)
		if len(moves) > p-1 {
			return false
		}
		out := Apply(loads, moves)
		if math.Abs(Average(out)-Average(loads)) > 1e-9 {
			return false
		}
		return Imbalance(out) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPairwiseStepPaperExampleFirstRound(t *testing.T) {
	// Figure 6B: sorted 65,38,24,15; pairs (65,15) and (38,24); transfers
	// 25 and 7 give 40,31,31,40.
	moves := PairwiseStepInto(nil, nil, paperLoads, 1, 0)
	out := Apply(paperLoads, moves)
	want := []float64{40, 31, 31, 40}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("after round 1: %v, want %v (moves %v)", out, want, moves)
		}
	}
}

func TestPairwisePaperExampleConverges(t *testing.T) {
	// Figure 6D: after the second round the loads are 36,35,35,36.
	hist := Pairwise(paperLoads, 1, 0.02, 2)
	if len(hist) != 3 {
		t.Fatalf("history has %d entries, want 3 (initial + 2 rounds)", len(hist))
	}
	if hist[0].MaxLoad != 65 || hist[0].MinLoad != 15 {
		t.Fatalf("initial entry %+v", hist[0])
	}
	final := Apply(Apply(paperLoads, hist[1].Moves), hist[2].Moves)
	want := []float64{36, 35, 35, 36}
	for i := range want {
		if final[i] != want[i] {
			t.Fatalf("after 2 rounds: %v, want %v", final, want)
		}
	}
	if hist[2].Imbalance >= hist[1].Imbalance {
		t.Fatalf("imbalance did not decrease: %g -> %g", hist[1].Imbalance, hist[2].Imbalance)
	}
}

func TestPairwiseStopsAtTolerance(t *testing.T) {
	loads := []float64{10, 10.1, 9.9, 10}
	hist := Pairwise(loads, 0, 0.05, 10)
	if len(hist) != 1 {
		t.Fatalf("already-balanced loads triggered %d extra rounds", len(hist)-1)
	}
}

func TestPairwiseMessageComplexityLinear(t *testing.T) {
	loads := make([]float64, 64)
	for i := range loads {
		loads[i] = float64((i * 37) % 100)
	}
	moves := PairwiseStepInto(nil, nil, loads, 0, 0)
	if len(moves) > 32 {
		t.Fatalf("one pairwise round used %d exchanges, want <= P/2 = 32", len(moves))
	}
}

func TestPairwiseConvergenceProperty(t *testing.T) {
	// Property: scheme 3 monotonically reduces imbalance and conserves
	// load, and a handful of rounds reaches single-digit imbalance from
	// any initial distribution — the paper's Tables 1-3 claim.
	f := func(seed int64, pRaw uint8) bool {
		p := int(pRaw)%30 + 2
		rng := rand.New(rand.NewSource(seed))
		loads := make([]float64, p)
		for i := range loads {
			loads[i] = rng.Float64()*10 + 0.1
		}
		hist := Pairwise(loads, 0, 0.01, 12)
		cur := loads
		for i := 1; i < len(hist); i++ {
			cur = Apply(cur, hist[i].Moves)
			if hist[i].Imbalance > hist[i-1].Imbalance+1e-12 {
				return false // must not increase
			}
		}
		if math.Abs(Average(cur)-Average(loads)) > 1e-9 {
			return false
		}
		return Imbalance(cur) <= 0.01+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPlanCost(t *testing.T) {
	msgs, vol := PlanCost([]Move{{0, 1, 5}, {1, 2, 0}, {2, 3, 2.5}})
	if msgs != 2 || vol != 7.5 {
		t.Fatalf("PlanCost = %d, %g", msgs, vol)
	}
}

func TestSchemeCostOrdering(t *testing.T) {
	// The paper's argument: scheme 2 and 3 use far fewer messages than
	// scheme 1's all-to-all shuffle.
	rng := rand.New(rand.NewSource(7))
	loads := make([]float64, 32)
	for i := range loads {
		loads[i] = rng.Float64() * 50
	}
	m1, _ := PlanCost(CyclicShuffleInto(nil, loads))
	m2, _ := PlanCost(SortedGreedyInto(nil, nil, loads, 0))
	m3, _ := PlanCost(PairwiseStepInto(nil, nil, loads, 0, 0))
	if !(m2 < m1 && m3 < m1) {
		t.Fatalf("message counts: shuffle=%d greedy=%d pairwise=%d; schemes 2,3 must beat 1", m1, m2, m3)
	}
}
