package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// funcLoop is a Loop of a function.
type funcLoop func(w, lo, hi int)

func (f funcLoop) Run(w, lo, hi int) { f(w, lo, hi) }

// growLoop is a Loop with per-worker scratch.
type growLoop struct {
	funcLoop
	grow func(k int)
}

func (g growLoop) Grow(k int) { g.grow(k) }

// withProcs runs f with GOMAXPROCS set to procs and restores it after.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestFanCoversEveryIteration runs Fan on machines of 1 to 8 ranks under
// GOMAXPROCS 3, 4 and the test's own (at least 2), and checks that every
// rank's loop visits each iteration exactly once, on a worker below
// min(n, max(1, GOMAXPROCS / ranks)), and that every chunk is done when Fan
// returns.  Three Ps cut a one-rank loop of 33 or 100 iterations into 24
// chunks of uneven size.
func TestFanCoversEveryIteration(t *testing.T) {
	for _, procs := range []int{max(2, runtime.GOMAXPROCS(0)), 3, 4} {
		withProcs(procs, func() {
			for _, ranks := range []int{1, 2, 3, 4, 8} {
				for _, n := range []int{0, 1, 3, 4, 7, 33, 100} {
					width := min(n, max(1, procs/ranks))
					_, err := New(ranks, newTestModel()).Run(func(p *Proc) error {
						seen := make([]int, n)
						worker := make([]int, n)
						loop := funcLoop(func(w, lo, hi int) {
							for i := lo; i < hi; i++ {
								seen[i]++
								worker[i] = w
							}
						})
						for round := 0; round < 3; round++ {
							clear(seen)
							p.Fan(loop, n)
							for i, c := range seen {
								if c != 1 {
									return fmt.Errorf("n=%d: iteration %d ran %d times", n, i, c)
								}
								if w := worker[i]; w < 0 || w >= width {
									return fmt.Errorf("n=%d: iteration %d ran as worker %d of %d", n, i, w, width)
								}
							}
						}
						return nil
					})
					if err != nil {
						t.Fatalf("GOMAXPROCS %d, %d ranks: %v", procs, ranks, err)
					}
				}
			}
		})
	}
}

// TestFanBusyHelpers parks every helper in a blocked worker of another call,
// so no handoff succeeds: the rank must claim every chunk itself, as worker
// 0, and return without waiting for the helpers.
func TestFanBusyHelpers(t *testing.T) {
	withProcs(4, func() {
		startHelpers(3)
		release := make(chan struct{})
		block := funcLoop(func(_, _, _ int) { <-release })
		blocked := make([]fanState, helpers.Load())
		for h := range blocked {
			// One call of one chunk per helper: the send returns once a
			// parked helper has taken it, and that helper stays in it.
			blocked[h].loop, blocked[h].n, blocked[h].chunks = block, 1, 1
			blocked[h].wg.Add(1)
			helperWork <- &worker{f: &blocked[h], w: 1}
		}
		defer func() {
			close(release)
			for h := range blocked {
				blocked[h].wg.Wait()
			}
		}()
		const n = 100
		_, err := New(1, newTestModel()).Run(func(p *Proc) error {
			worker := make([]int, n)
			for i := range worker {
				worker[i] = -1
			}
			p.Fan(funcLoop(func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					worker[i] = w
				}
			}), n)
			for i, w := range worker {
				if w != 0 {
					return fmt.Errorf("iteration %d ran as worker %d with every helper busy", i, w)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestFanGrowsScratchBeforeUse checks that Grow(k) runs before the chunks
// of every call k > 1 wide.
func TestFanGrowsScratchBeforeUse(t *testing.T) {
	var grown []int
	scratch := 1
	loop := growLoop{func(w, lo, hi int) {
		if w >= scratch {
			panic(fmt.Sprintf("worker %d has no scratch (%d made)", w, scratch))
		}
	}, func(k int) {
		grown = append(grown, k)
		scratch = max(scratch, k)
	}}
	m := New(1, newTestModel())
	for _, procs := range []int{1, 2, 4, 2, 4, 3} {
		withProcs(procs, func() {
			if _, err := m.Run(func(p *Proc) error { p.Fan(loop, 10); return nil }); err != nil {
				t.Fatalf("GOMAXPROCS %d: %v", procs, err)
			}
		})
	}
	if fmt.Sprint(grown) != "[2 4 2 4 3]" {
		t.Fatalf("Grow calls %v, want [2 4 2 4 3]", grown)
	}
}

// TestFanPanicIsRankPanic makes two chunks panic: far apart, and in
// neighbouring chunks (iterations 10 and 12 of 32 two-iteration chunks).
// Each iteration sleeps a little, so a helper joins in and the neighbours
// often run on different workers, the higher one panicking first.  The run must
// return what the serial loop would: the rank's panic at the lower
// iteration.  Fan must join every chunk first and return, and the helpers
// must survive: their count stays GOMAXPROCS-1 over repeated runs.
func TestFanPanicIsRankPanic(t *testing.T) {
	const n = 64
	for _, at := range [][2]int{{20, 50}, {10, 12}} {
		body := func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				time.Sleep(20 * time.Microsecond)
				if i == at[0] || i == at[1] {
					panic(fmt.Sprintf("iteration %d", i))
				}
			}
		}
		serial := func(p *Proc) error {
			body(0, 0, n)
			return nil
		}
		_, want := New(1, newTestModel()).Run(serial)
		if want == nil {
			t.Fatal("the serial loop did not fail")
		}
		withProcs(4, func() {
			m := New(1, newTestModel())
			loop := funcLoop(body)
			helpersBefore := int(helpers.Load())
			for run := 0; run < 20; run++ {
				res, err := m.Run(func(p *Proc) error {
					p.Compute(5)
					p.Fan(loop, n)
					p.Compute(7)
					return nil
				})
				if err == nil || err.Error() != want.Error() {
					t.Fatalf("panics at %v, run %d: error %v, want %v", at, run, err, want)
				}
				if res.Clocks[0] != newTestModel().FlopSeconds(5) {
					t.Fatalf("panics at %v, run %d: clock %g, want the charge before the panic alone", at, run, res.Clocks[0])
				}
				if got, want := int(helpers.Load()), max(3, helpersBefore); got != want {
					t.Fatalf("panics at %v, run %d: %d helpers, want %d", at, run, got, want)
				}
			}
		})
	}
}

// TestFanAllocFree pins a Fan call that splits at zero allocations once the
// loop has been as wide.  testing.AllocsPerRun would run it under
// GOMAXPROCS 1, inline, so the mallocs are read around the calls directly.
func TestFanAllocFree(t *testing.T) {
	const n, runs = 64, 200
	sums := make([]float64, n)
	loop := funcLoop(func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sums[i] += float64(i)
		}
	})
	withProcs(max(2, runtime.GOMAXPROCS(0)), func() {
		_, err := New(1, newTestModel()).Run(func(p *Proc) error {
			p.Fan(loop, n)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				p.Fan(loop, n)
			}
			runtime.ReadMemStats(&after)
			// Per call, as AllocsPerRun counts: a stray malloc of another
			// goroutine of the process does not count against Fan.
			if d := (after.Mallocs - before.Mallocs) / runs; d != 0 {
				return fmt.Errorf("Fan allocated %d times per call; want 0", d)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
