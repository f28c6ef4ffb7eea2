package fft

import "testing"

// TestFlopsAllocFree pins the cost model at zero allocations for every plan
// kind: the filters charge it on their per-line path.
func TestFlopsAllocFree(t *testing.T) {
	var sink float64
	for _, n := range []int{128, 144, 97} { // power of two, mixed radix, Bluestein
		if a := testing.AllocsPerRun(100, func() { sink += Flops(n) }); a != 0 {
			t.Errorf("Flops(%d) allocated %.1f times per call; want 0", n, a)
		}
	}
	if sink == 0 {
		t.Fatal("Flops returned 0 for every length")
	}
}

// TestNewPlanAllocsOnSharedTables pins what a plan costs once its length's
// tables exist: the struct and one scratch allocation, on every kernel.
func TestNewPlanAllocsOnSharedTables(t *testing.T) {
	clear(shared)
	for _, n := range []int{128, 144, 97} { // power of two, mixed radix, Bluestein
		NewPlan(n)
		if a := testing.AllocsPerRun(20, func() { NewPlan(n) }); a > 2 {
			t.Errorf("a second NewPlan(%d) allocated %.1f times; want <= 2", n, a)
		}
		NewRealPlan(2 * n)
		if a := testing.AllocsPerRun(20, func() { NewRealPlan(2 * n) }); a > 2 {
			t.Errorf("a second NewRealPlan(%d) allocated %.1f times; want <= 2", 2*n, a)
		}
	}
}

// TestSharedTablesAreBounded feeds the cache more distinct lengths than it
// holds, and one longer than it admits: it must stop growing, and the plans
// that did not fit must still transform correctly on tables of their own.
func TestSharedTablesAreBounded(t *testing.T) {
	clear(shared)
	NewPlan(2 * maxSharedLen)
	if len(shared) != 0 {
		t.Errorf("cache admitted length %d; the limit is %d", 2*maxSharedLen, maxSharedLen)
	}
	for n := 3; n < 3+4*maxSharedTables; n++ {
		re, im := randSignal(n, int64(n))
		wantRe, wantIm := DFT(re, im)
		NewPlan(n).Forward(re, im)
		if d := maxAbsDiff(re, wantRe) + maxAbsDiff(im, wantIm); d > 1e-9 {
			t.Fatalf("n=%d: plan differs from the naive DFT by %g", n, d)
		}
	}
	if len(shared) != maxSharedTables {
		t.Errorf("cache holds %d lengths after %d distinct ones; capacity is %d",
			len(shared), 4*maxSharedTables, maxSharedTables)
	}
}

// TestBatchAllocFree pins the batch transforms at zero allocations per call
// on every kernel, complex and real, at a full batch and a shorter one.
func TestBatchAllocFree(t *testing.T) {
	const lines = 8
	for _, n := range []int{64, 72, 97} { // power of two, mixed radix, Bluestein
		p, rp := NewBatchPlan(n, lines), NewRealBatchPlan(2*n, lines)
		for _, L := range []int{lines, 3} {
			re, im := randSignal(n*L, int64(n))
			x := make([][]float64, L)
			for l := range x {
				x[l], _ = randSignal(2*n, int64(n+l))
			}
			sRe, sIm := make([]float64, (n+1)*L), make([]float64, (n+1)*L)
			a := testing.AllocsPerRun(20, func() {
				p.ForwardBatch(re, im)
				p.InverseBatch(re, im)
				rp.ForwardBatch(x, sRe, sIm)
				rp.InverseBatch(sRe, sIm, x)
			})
			if a != 0 {
				t.Errorf("n=%d L=%d: batch transforms allocated %.1f times per call; want 0", n, L, a)
			}
		}
	}
}
