package core

import (
	"runtime"
	"testing"

	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/physics"
)

// runMallocs returns the malloc count of one Run of the benchmark's model
// configuration — full resolution, balanced FFT filter, pairwise physics —
// on a py x px mesh.
func runMallocs(t *testing.T, py, px, steps int) uint64 {
	t.Helper()
	cfg := Config{
		Spec:          grid.TwoByTwoPointFive(9),
		Machine:       machine.Paragon(),
		MeshPy:        py,
		MeshPx:        px,
		Filter:        FilterFFTBalanced,
		PhysicsScheme: physics.Pairwise,
		PhysicsRounds: 2,
		InitWind:      20,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg, steps); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestMeshRunAllocBudget pins the malloc count of one cold run of the
// benchmark's mesh-240-fft op: the paper's optimised code on the 8x30 mesh,
// two measured steps.  Every core.Run builds a fresh 240-rank machine, so
// this is mostly what sim's mailboxes and comm's collectives cost to bring
// up; it read 128k while every message, queue and payload was its own
// allocation, 45k once they were carved from per-mailbox chunks, and reads
// 42.7k now that the 240 ranks' FFT plans share one set of tables.  The
// budget is that plus 10 %.
func TestMeshRunAllocBudget(t *testing.T) {
	const budget = 47000
	if n := runMallocs(t, 8, 30, 2); n > budget {
		t.Fatalf("cold 8x30 fft-load-balanced/pairwise 2-step Run: %d mallocs; budget %d", n, budget)
	} else {
		t.Logf("cold 8x30 fft-load-balanced/pairwise 2-step Run: %d mallocs (budget %d)", n, budget)
	}
}

// TestSingleRankRunAllocBudget is the same pin for the benchmark's
// single-rank op (one rank, ten measured steps), where only the model's own
// set-up allocates.  It measures a second Run, as the benchmark's
// allocs_per_op does: the first also builds the process-wide FFT tables
// (about 30 allocations, once).  154 measured, plus 10 %.
func TestSingleRankRunAllocBudget(t *testing.T) {
	const budget = 170
	runMallocs(t, 1, 1, 1)
	if n := runMallocs(t, 1, 1, 10); n > budget {
		t.Fatalf("warm 1x1 fft-load-balanced/pairwise 10-step Run: %d mallocs; budget %d", n, budget)
	} else {
		t.Logf("warm 1x1 fft-load-balanced/pairwise 10-step Run: %d mallocs (budget %d)", n, budget)
	}
}
