package physics

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"agcm/internal/comm"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/sim"
)

// maxRounds is MaxRounds under the name plan_oracle_test.go was written
// against, kept only so that test runs unedited.
const maxRounds = MaxRounds

// privateHolders returns, ascending, the ranks other than origin that a
// planner's holdings list as holding a column of origin.
func privateHolders(pl *planner, origin int) []int {
	var holders []int
	for holder := range pl.hold.ranks {
		if holder == origin {
			continue
		}
		if slices.ContainsFunc(pl.hold.list(holder), func(s segment) bool { return s.origin == origin && s.count > 0 }) {
			holders = append(holders, holder)
		}
	}
	return holders
}

// samePlan reports the first difference between a shared plan and the plan a
// fresh planner of the shape builds from the same loads.
func samePlan(f *frozenPlan, d grid.Decomp, scheme Scheme, rounds int, loads []float64) error {
	if !bitsEqual(f.loads, loads) {
		return fmt.Errorf("plan of loads %v returned for %v", f.loads, loads)
	}
	pl := newPlanner(d, scheme, rounds)
	if want := pl.plan(loads); !slices.Equal(f.transfers, want) {
		return fmt.Errorf("transfers %+v, a private planner has %+v", f.transfers, want)
	}
	for rank := range pl.hold.ranks {
		if got, want := f.holdersOf(rank), privateHolders(pl, rank); !slices.Equal(got, want) {
			return fmt.Errorf("rank %d's columns held by %v, a private planner has %v", rank, got, want)
		}
	}
	return nil
}

// TestSharedPlanMatchesPrivate is the differential check of the plan board:
// for every scheme, round count, mesh and load map, the plan planFor returns
// — built or found published — equals what a fresh planner builds.  Every
// board comes from one machine's store, so a key that loses a field hands
// one shape's plans to another.
func TestSharedPlanMatchesPrivate(t *testing.T) {
	spec := grid.TwoByTwoPointFive(9)
	rng := rand.New(rand.NewSource(29))
	_, err := sim.New(1, machine.CrayT3D()).Run(func(p *sim.Proc) error {
		for _, mesh := range [][2]int{{2, 2}, {2, 4}, {3, 5}, {8, 8}, {8, 30}} {
			d := grid.Decomp{Spec: spec, Py: mesh[0], Px: mesh[1]}
			cases := planLoadCases(d.Py*d.Px, rng)
			for rounds := 1; rounds <= 3; rounds++ {
				for _, scheme := range []Scheme{Shuffle, Greedy, Pairwise} {
					b := boardFor(p, d, scheme, rounds)
					for _, lc := range cases {
						id := fmt.Sprintf("%dx%d/%s/rounds%d/%s", d.Py, d.Px, scheme, rounds, lc.name)
						built := b.planFor(lc.loads)
						if err := samePlan(built, d, scheme, rounds, lc.loads); err != nil {
							return fmt.Errorf("%s: %v", id, err)
						}
						if found := b.planFor(slices.Clone(lc.loads)); found != built {
							return fmt.Errorf("%s: the same loads again missed the published plan", id)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSharedBoardPerMachine runs two machines of one shape at once, each
// for two Runs of balanced steps: every rank of a machine, in either Run,
// reads the one board its machine's store holds, and the other machine
// builds its own (run under -race in CI).
func TestSharedBoardPerMachine(t *testing.T) {
	spec := grid.Spec{Nlon: 24, Nlat: 16, Nlayers: 4}
	const py, px = 2, 4
	d, err := grid.NewDecomp(spec, py, px)
	if err != nil {
		t.Fatal(err)
	}
	boards := make([][]*planBoard, 2)
	var wg sync.WaitGroup
	for m := range boards {
		boards[m] = make([]*planBoard, 2*py*px)
		wg.Add(1)
		go func() {
			defer wg.Done()
			mach := sim.New(py*px, machine.CrayT3D())
			for run := range 2 {
				if _, err := mach.Run(func(p *sim.Proc) error {
					world := comm.World(p)
					cart := comm.NewCart2D(world, py, px)
					l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
					T, Q := testFields(spec, l)
					r := NewRunner(world, cart, l, NewModel(spec, stepsPerDay), Pairwise, 2)
					for step := range 3 {
						r.Step(T, Q, step)
					}
					boards[m][run*py*px+p.Rank()] = r.board
					return nil
				}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	for m, bs := range boards {
		for i, b := range bs {
			if b == nil || b != bs[0] {
				t.Fatalf("machine %d: run %d rank %d read board %p, rank 0 of run 0 read %p", m, i/(py*px), i%(py*px), b, bs[0])
			}
		}
	}
	if boards[0][0] == boards[1][0] {
		t.Fatal("two machines of one shape share a board")
	}
}

// TestSharedPlanConcurrentShapes has groups of ranks ask one board at once
// for plans of loads of their own, step after step, so they keep replacing
// each other's published plan: every rank gets the plan of its own loads
// (run under -race in CI).  Loads one ULP or one sign of zero apart must
// miss.
func TestSharedPlanConcurrentShapes(t *testing.T) {
	d := grid.Decomp{Spec: grid.Spec{Nlon: 24, Nlat: 16, Nlayers: 2}, Py: 2, Px: 4}
	const machines, steps = 5, 4
	ranks := d.Py * d.Px
	rng := rand.New(rand.NewSource(3))
	loads := make([][][]float64, machines)
	for m := range loads {
		loads[m] = make([][]float64, steps)
		for s := range loads[m] {
			loads[m][s] = make([]float64, ranks)
			for r := range loads[m][s] {
				loads[m][s][r] = rng.ExpFloat64()
			}
		}
	}
	b := &planBoard{pl: newPlanner(d, Pairwise, 2)}
	errs := make(chan error, machines*ranks)
	var wg sync.WaitGroup
	for m := range machines {
		for range ranks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := range steps {
					f := b.planFor(loads[m][s])
					if err := samePlan(f, d, Pairwise, 2, loads[m][s]); err != nil {
						errs <- fmt.Errorf("machine %d step %d: %v", m, s, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	base := slices.Clone(loads[0][0])
	base[5] = 0
	ulp, negZero := slices.Clone(base), slices.Clone(base)
	ulp[3] = math.Nextafter(ulp[3], math.Inf(1))
	negZero[5] = math.Copysign(0, -1)
	for name, near := range map[string][]float64{"one ULP": ulp, "-0 for +0": negZero} {
		f := b.planFor(base)
		if b.planFor(base) != f {
			t.Error("the base loads missed their published plan")
		}
		if g := b.planFor(near); g == f || !bitsEqual(g.loads, near) {
			t.Errorf("loads %s apart hit the other's plan", name)
		}
	}
}

// pinLoads returns count load maps for the 8x30 mesh, each of which makes
// the pairwise scheme move columns.
func pinLoads(count int) (grid.Decomp, [][]float64) {
	d := grid.Decomp{Spec: grid.TwoByTwoPointFive(9), Py: 8, Px: 30}
	rng := rand.New(rand.NewSource(7))
	maps := make([][]float64, count)
	for i := range maps {
		maps[i] = make([]float64, d.Py*d.Px)
		for r := range maps[i] {
			maps[i][r] = rng.ExpFloat64()
		}
	}
	return d, maps
}

// TestSharedPlanHitAllocFree pins a hit on the published plan — what all
// but one rank of a machine step do — at zero allocations.
func TestSharedPlanHitAllocFree(t *testing.T) {
	d, maps := pinLoads(1)
	b := &planBoard{pl: newPlanner(d, Pairwise, 2)}
	b.planFor(maps[0])
	if a := testing.AllocsPerRun(100, func() { b.planFor(maps[0]) }); a != 0 {
		t.Errorf("a hit allocated %.1f times; want 0", a)
	}
}

// TestSharedPlanMachineStepAllocBudget pins one balanced 8x30 machine step's
// planning — one rank builds the plan, 239 read it — at the frozen plan's
// four allocations: the plan, its loads, its transfers and its holder
// lists.  The load maps alternate, so every step builds; a first pass over
// them sizes the builder.
func TestSharedPlanMachineStepAllocBudget(t *testing.T) {
	const budget = 4
	d, maps := pinLoads(2)
	b := &planBoard{pl: newPlanner(d, Pairwise, 2)}
	for _, loads := range maps {
		b.planFor(loads)
	}
	step := 0
	a := testing.AllocsPerRun(2*len(maps), func() {
		loads := maps[step%len(maps)]
		step++
		for range d.Py * d.Px {
			b.planFor(loads)
		}
	})
	if a > budget {
		t.Errorf("a machine step's planning allocated %.1f times; budget %d", a, budget)
	}
}
