package core

import (
	"runtime"
	"testing"

	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/physics"
)

// TestMeshRunAllocBudget pins the malloc count of one cold run of the
// benchmark's mesh-240-fft op: the paper's optimised code at full resolution
// on the 8x30 mesh, two measured steps.  Every core.Run builds a fresh
// 240-rank machine, so this is mostly what sim's mailboxes and comm's
// collectives cost to bring up; it read 128k while every message, queue and
// payload was its own allocation and reads 45k now that they are carved from
// per-mailbox chunks.
func TestMeshRunAllocBudget(t *testing.T) {
	cfg := Config{
		Spec:          grid.TwoByTwoPointFive(9),
		Machine:       machine.Paragon(),
		MeshPy:        8,
		MeshPx:        30,
		Filter:        FilterFFTBalanced,
		PhysicsScheme: physics.Pairwise,
		PhysicsRounds: 2,
		InitWind:      20,
	}
	const budget = 60000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg, 2); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > budget {
		t.Fatalf("cold 8x30 fft-load-balanced/pairwise 2-step Run: %d mallocs; budget %d", n, budget)
	} else {
		t.Logf("cold 8x30 fft-load-balanced/pairwise 2-step Run: %d mallocs (budget %d)", n, budget)
	}
}
