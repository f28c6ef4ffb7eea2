package core

import (
	"context"
	"runtime"
	"testing"

	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/physics"
)

// runMallocs returns the malloc count of one run, on a kit from pool, of the
// benchmark's model configuration — full resolution, balanced FFT filter,
// pairwise physics — on a py x px mesh.
func runMallocs(t *testing.T, pool *kitPool, py, px, steps int) uint64 {
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
	if _, err := pool.run(context.Background(), cfg, steps); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestMeshRunAllocBudget pins the malloc count of one cold run of the
// benchmark's mesh-240-fft op: the paper's optimised code on the 8x30 mesh,
// two measured steps, on a new kit.  Building the 240-rank machine is most
// of it — what sim's mailboxes and comm's collectives cost to bring up; it
// read 128k while every message, queue and payload was its own allocation,
// 45k once they were carved from per-mailbox chunks, and reads 42.7k now
// that the 240 ranks' FFT plans share one set of tables.  The budget is
// that plus 10 %.
func TestMeshRunAllocBudget(t *testing.T) {
	const budget = 47000
	if n := runMallocs(t, newTestPool(), 8, 30, 2); n > budget {
		t.Fatalf("cold 8x30 fft-load-balanced/pairwise 2-step Run: %d mallocs; budget %d", n, budget)
	} else {
		t.Logf("cold 8x30 fft-load-balanced/pairwise 2-step Run: %d mallocs (budget %d)", n, budget)
	}
}

// TestSingleRankRunAllocBudget is the same pin for the benchmark's
// single-rank op (one rank, ten measured steps).  It measures a second run,
// as the benchmark's allocs_per_op does: the first also builds the kit and
// the process-wide FFT tables.  The second runs on the first one's kit, so
// only the run's own bookkeeping allocates: 31 measured, plus 10 %.
func TestSingleRankRunAllocBudget(t *testing.T) {
	const budget = 35
	pool := newTestPool()
	runMallocs(t, pool, 1, 1, 1)
	if n := runMallocs(t, pool, 1, 1, 10); n > budget {
		t.Fatalf("warm 1x1 fft-load-balanced/pairwise 10-step Run: %d mallocs; budget %d", n, budget)
	} else {
		t.Logf("warm 1x1 fft-load-balanced/pairwise 10-step Run: %d mallocs (budget %d)", n, budget)
	}
}

// TestKitWarmRunAllocBudget pins a run on a warm kit of a multi-rank shape:
// the benchmark's model on a 2x4 mesh, two measured steps after the default
// two of warm-up.  What is left once nothing is built is the run's own
// bookkeeping — the ranks' goroutines, the Result and the Report — and the
// steps' messages past the depth the kit's mailboxes have seen, which
// depends on how far the schedule lets senders run ahead.  So it takes the
// least of five warm runs: 56 measured, plus 15 %.
func TestKitWarmRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations inflate the count")
	}
	const budget = 64
	pool := newTestPool()
	n := runMallocs(t, pool, 2, 4, 2)
	for i := 0; i < 5; i++ {
		n = min(n, runMallocs(t, pool, 2, 4, 2))
	}
	if n > budget {
		t.Fatalf("warm-kit 2x4 fft-load-balanced/pairwise 2-step run: %d mallocs; budget %d", n, budget)
	} else {
		t.Logf("warm-kit 2x4 fft-load-balanced/pairwise 2-step run: %d mallocs (budget %d)", n, budget)
	}
}
