package physics

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"agcm/internal/comm"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/sim"
)

// TestPlanAllocFree pins the planner at zero allocations per plan once one
// call has sized its buffers: 240 ranks, every scheme, a load map that
// makes every scheme move columns.
func TestPlanAllocFree(t *testing.T) {
	d, err := grid.NewDecomp(grid.TwoByTwoPointFive(9), 8, 30)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	loads := make([]float64, d.Py*d.Px)
	for rank := range loads {
		loads[rank] = rng.ExpFloat64()
	}
	loads[17] *= 300 // enough surplus that Shuffle's 1/P pieces are whole columns
	for _, scheme := range []Scheme{Shuffle, Greedy, Pairwise} {
		pl := newPlanner(d, scheme, 2)
		if len(pl.plan(loads)) == 0 {
			t.Fatalf("%s: the load map plans no transfer", scheme)
		}
		if a := testing.AllocsPerRun(10, func() { pl.plan(loads) }); a != 0 {
			t.Errorf("%s: plan allocated %.1f times per call; want 0", scheme, a)
		}
	}
}

// withProcs runs f with GOMAXPROCS set to procs and restores it after.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestRunnerStepAllocFree pins the unbalanced physics step on one rank at
// zero allocations: the columns are computed in place in the fields, block
// by block, the block's headers live on the stack and the flop counts in
// the Runner.  It runs under GOMAXPROCS 2 at least, so the blocks are split
// over a helper goroutine (sim.Fan), and reads runtime.MemStats around the
// steps itself: testing.AllocsPerRun forces GOMAXPROCS 1, which runs every
// loop inline.
func TestRunnerStepAllocFree(t *testing.T) {
	const runs = 10
	spec := grid.Spec{Nlon: 24, Nlat: 16, Nlayers: 4}
	d, err := grid.NewDecomp(spec, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	withProcs(max(2, runtime.GOMAXPROCS(0)), func() {
		_, err = sim.New(1, machine.CrayT3D()).Run(func(p *sim.Proc) error {
			world := comm.World(p)
			cart := comm.NewCart2D(world, 1, 1)
			l := grid.NewLocal(d, 0, 0)
			T, Q := testFields(spec, l)
			for _, scheme := range []Scheme{None, Pairwise} {
				r := NewRunner(world, cart, l, NewModel(spec, stepsPerDay), scheme, 2)
				r.Step(T, Q, 0)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for step := 1; step <= runs; step++ {
					r.Step(T, Q, step)
				}
				runtime.ReadMemStats(&after)
				if a := (after.Mallocs - before.Mallocs) / runs; a != 0 {
					return fmt.Errorf("%s: one-rank Step allocated %d times per call; want 0", scheme, a)
				}
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunnerStepAllocBudget pins the steady-state allocations of the
// balanced physics step: pairwise, two rounds, 2x4 mesh.  AllocsPerRun
// counts mallocs process-wide, so the figure is per step over all eight
// ranks.  It is not pinned at zero: the plan follows the load estimates, so
// transfer sizes change from step to step, and a message of a length its
// receiver has not seen before adds an entry to that rank's payload pool in
// sim (after 300 warm-up steps that part is 0).  Everything the Runner
// itself owns is reused, and each step's one shared plan costs its four
// frozen-plan allocations once per machine, not per rank.  Before the
// planner worked in place this test measured 49.9 allocations per rank-step
// here (767 on the 8x30 mesh, where the 241 holdings slices per plan
// dominate); with a planner per rank it measured 0.50, all of it sim's, and
// with the shared plan it measures 1.00 — sim's 0.50 plus 4/8 for the plan.
// The budget is 5 % of the old figure.
const budgetPerRankStep = 0.05 * 49.9

func TestRunnerStepAllocBudget(t *testing.T) {
	spec := grid.Spec{Nlon: 24, Nlat: 16, Nlayers: 4}
	const py, px, warm, runs = 2, 4, 12, 24
	d, err := grid.NewDecomp(spec, py, px)
	if err != nil {
		t.Fatal(err)
	}
	var perRankStep float64
	m := sim.New(py*px, machine.CrayT3D())
	_, err = m.Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, py, px)
		l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
		T, Q := testFields(spec, l)
		r := NewRunner(world, cart, l, NewModel(spec, stepsPerDay), Pairwise, 2)
		step := 0
		round := func() {
			r.Step(T, Q, step)
			step++
		}
		for i := 0; i < warm; i++ {
			round()
		}
		if world.Rank() == 0 {
			perRankStep = testing.AllocsPerRun(runs, round) / (py * px)
			return nil
		}
		for i := 0; i < runs+1; i++ {
			round()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if perRankStep > budgetPerRankStep {
		t.Fatalf("balanced Step allocated %.2f times per rank-step; budget %.2f", perRankStep, budgetPerRankStep)
	}
	t.Logf("balanced Step: %.2f allocations per rank-step", perRankStep)
}

// TestRunnerFannedStepAllocBudget holds the balanced step to
// TestRunnerStepAllocBudget's budget when its columns are split: pairwise,
// two rounds, 1x2 mesh under GOMAXPROCS 4 at least, so each rank fans its
// held columns two ways or more.  It reads runtime.MemStats around the
// steps itself, as TestRunnerStepAllocFree does; the figure is per step
// over both ranks.  Two ranks share each step's four frozen-plan
// allocations, 2 per rank-step, so the run warms up for 300 steps, until
// sim's payload pools hold every message length (see
// TestRunnerStepAllocBudget) and measures 1.96: the split adds nothing.
func TestRunnerFannedStepAllocBudget(t *testing.T) {
	spec := grid.Spec{Nlon: 24, Nlat: 16, Nlayers: 4}
	const py, px, warm, runs = 1, 2, 300, 24
	d, err := grid.NewDecomp(spec, py, px)
	if err != nil {
		t.Fatal(err)
	}
	var perRankStep float64
	workers := make([]int, py*px)
	withProcs(max(4, runtime.GOMAXPROCS(0)), func() {
		_, err = sim.New(py*px, machine.CrayT3D()).Run(func(p *sim.Proc) error {
			world := comm.World(p)
			cart := comm.NewCart2D(world, py, px)
			l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
			T, Q := testFields(spec, l)
			r := NewRunner(world, cart, l, NewModel(spec, stepsPerDay), Pairwise, 2)
			for step := 0; step < warm; step++ {
				r.Step(T, Q, step)
			}
			var before, after runtime.MemStats
			if world.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			for step := warm; step < warm+runs; step++ {
				r.Step(T, Q, step)
			}
			if world.Rank() == 0 {
				runtime.ReadMemStats(&after)
				perRankStep = float64(after.Mallocs-before.Mallocs) / runs / (py * px)
			}
			workers[world.Rank()] = len(r.models)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fanned balanced Step: %.2f allocations per rank-step, workers per rank %v", perRankStep, workers)
	if slices.Min(workers) < 2 {
		t.Fatalf("workers per rank %v: the balanced steps were not split", workers)
	}
	if perRankStep > budgetPerRankStep {
		t.Fatalf("fanned balanced Step allocated %.2f times per rank-step; budget %.2f", perRankStep, budgetPerRankStep)
	}
}
