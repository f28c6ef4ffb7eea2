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
