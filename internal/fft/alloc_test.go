package fft

import "testing"

// TestFlopsAllocFree pins the cost model at zero allocations for every plan
// kind: the filters charge it on their per-line path.
func TestFlopsAllocFree(t *testing.T) {
	var sink float64
	for _, n := range []int{128, 144, 97} { // radix-2, mixed radix, Bluestein
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
	for _, n := range []int{128, 144, 97} { // radix-2, mixed radix, Bluestein
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
