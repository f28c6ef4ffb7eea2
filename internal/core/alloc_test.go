package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/physics"
)

// benchConfig is the benchmark's model configuration — full resolution,
// balanced FFT filter, pairwise physics — on a py x px mesh.
func benchConfig(py, px int) Config {
	return Config{
		Spec:          grid.TwoByTwoPointFive(9),
		Machine:       machine.Paragon(),
		MeshPy:        py,
		MeshPx:        px,
		Filter:        FilterFFTBalanced,
		PhysicsScheme: physics.Pairwise,
		PhysicsRounds: 2,
		InitWind:      20,
	}
}

// runMallocs returns the malloc count of one run of cfg on a kit from pool.
func runMallocs(t *testing.T, pool *kitPool, cfg Config, steps int) uint64 {
	t.Helper()
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
// 45k once they were carved from per-mailbox chunks, and 42.7k once the
// 240 ranks' FFT plans shared one set of tables; the budget is that plus
// 10 %.  It reads 36.2k with each machine building its own filter tables
// and plan board.
func TestMeshRunAllocBudget(t *testing.T) {
	const budget = 47000
	if n := runMallocs(t, newTestPool(), benchConfig(8, 30), 2); n > budget {
		t.Fatalf("cold 8x30 fft-load-balanced/pairwise 2-step Run: %d mallocs; budget %d", n, budget)
	} else {
		t.Logf("cold 8x30 fft-load-balanced/pairwise 2-step Run: %d mallocs (budget %d)", n, budget)
	}
}

// TestSingleRankRunAllocBudget is the same pin for the benchmark's
// single-rank op (one rank, ten measured steps), on a warm kit, as the
// benchmark's allocs_per_op measures it: the first run also builds the kit
// and the process-wide FFT tables, so only the run's own bookkeeping
// allocates after it: 25 measured, and 35 is its budget since 31 were.
//
// It runs under GOMAXPROCS 2, so the rank's loops are split over a helper
// goroutine (sim.Fan), and the count is process-wide, so it also sees the
// runtime's records of parked goroutines (sudogs).  The rank parks at a
// Fan join and often wakes on the helper's P, so the records drift from one
// P's cache to the other's, and the runtime allocates a new one whenever a
// P finds its own cache and the central one empty; that stops only once
// there are more than one P's cache holds (128), which takes tens of runs.
// primeWaitRecords makes them at once, so after it and three warm runs the
// measured run reads the run's own allocations.
func TestSingleRankRunAllocBudget(t *testing.T) {
	const budget, warm = 35, 3
	withProcs(2, func() {
		pool := newTestPool()
		runMallocs(t, pool, benchConfig(1, 1), 1)
		primeWaitRecords(4 * 128)
		for i := 0; i < warm; i++ {
			runMallocs(t, pool, benchConfig(1, 1), 10)
		}
		if n := runMallocs(t, pool, benchConfig(1, 1), 10); n > budget {
			t.Fatalf("warm 1x1 fft-load-balanced/pairwise 10-step Run: %d mallocs; budget %d", n, budget)
		} else {
			t.Logf("warm 1x1 fft-load-balanced/pairwise 10-step Run: %d mallocs (budget %d)", n, budget)
		}
	})
}

// primeWaitRecords parks n goroutines on one channel and then wakes them
// all, so the runtime holds about n records of parked goroutines in its
// caches from then on.
func primeWaitRecords(n int) {
	var parked atomic.Int32
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parked.Add(1)
			<-gate
		}()
	}
	for int(parked.Load()) < n {
		runtime.Gosched()
	}
	runtime.Gosched()
	close(gate)
	wg.Wait()
}

// TestVerticalDiffusionAllocFree: implicit vertical mixing adds no
// allocation to a warm one-rank run.  Its matrix is eliminated once when the
// kit is built, and every column is solved in place.
func TestVerticalDiffusionAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations inflate the count")
	}
	withProcs(max(2, runtime.GOMAXPROCS(0)), func() {
		least := func(cfg Config) uint64 {
			pool := newTestPool()
			n := runMallocs(t, pool, cfg, 4)
			for i := 0; i < 3; i++ {
				n = min(n, runMallocs(t, pool, cfg, 4))
			}
			return n
		}
		cfg := benchConfig(1, 1)
		cfg.Spec = testSpec
		plain := least(cfg)
		cfg.VerticalDiffusion = 0.2
		if mixed := least(cfg); mixed > plain {
			t.Fatalf("warm 1x1 run with vertical diffusion: %d mallocs; without: %d", mixed, plain)
		}
	})
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
	n := runMallocs(t, pool, benchConfig(2, 4), 2)
	for i := 0; i < 5; i++ {
		n = min(n, runMallocs(t, pool, benchConfig(2, 4), 2))
	}
	if n > budget {
		t.Fatalf("warm-kit 2x4 fft-load-balanced/pairwise 2-step run: %d mallocs; budget %d", n, budget)
	} else {
		t.Logf("warm-kit 2x4 fft-load-balanced/pairwise 2-step run: %d mallocs (budget %d)", n, budget)
	}
}
