package filter

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"agcm/internal/comm"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/sim"
)

// TestRowFilterAllocFree pins the FFT filter's per-row hot path — forward
// real FFT, damping, inverse — at zero allocations, one row and a batch of
// rows, at a power-of-two half length (32) and at the 144-point grid's.
func TestRowFilterAllocFree(t *testing.T) {
	const lines = 8
	for _, n := range []int{64, 144} {
		rf := newRowFilter(n, lines)
		damp := DampingRow(n, 80*math.Pi/180, 45*math.Pi/180)
		rows, damps := make([][]float64, lines), make([][]float64, lines)
		for l := range rows {
			rows[l], damps[l] = make([]float64, n), damp
			for i := range rows[l] {
				rows[l][i] = math.Sin(2 * math.Pi * float64(i) / float64(n) * float64(3+l))
			}
		}
		if a := testing.AllocsPerRun(100, func() { rf.applyBatch(damps[:1], rows[:1]) }); a != 0 {
			t.Fatalf("n=%d: rowFilter.applyBatch allocated %.1f times per row; want 0", n, a)
		}
		if a := testing.AllocsPerRun(100, func() { rf.applyBatch(damps, rows) }); a != 0 {
			t.Fatalf("n=%d: rowFilter.applyBatch allocated %.1f times per batch; want 0", n, a)
		}
	}
}

// BenchmarkRowFilterBatch times the row filter per circle of the 144-point
// grid in batches of 1, 8 and 32, every circle reset from one source before
// each batch: filtering a circle in place over and over would damp it into
// denormals.
func BenchmarkRowFilterBatch(b *testing.B) {
	const n = 144
	damp := DampingRow(n, 80*math.Pi/180, 45*math.Pi/180)
	src := make([]float64, n)
	for i := range src {
		src[i] = math.Sin(float64(3*i)) + 0.5*math.Cos(float64(11*i))
	}
	for _, lines := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("L=%d", lines), func(b *testing.B) {
			rf := newRowFilter(n, lines)
			rows, damps := make([][]float64, lines), make([][]float64, lines)
			for l := range rows {
				rows[l], damps[l] = make([]float64, n), damp
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, row := range rows {
					copy(row, src)
				}
				rf.applyBatch(damps, rows)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/circle")
		})
	}
}

// TestRowwiseFFTApplyAllocs pins the row-wise filter's own staging at zero
// allocations per Apply: all that is left is what its one collective per
// variable, AllgathervTree, returns.
func TestRowwiseFFTApplyAllocs(t *testing.T) {
	spec := grid.Spec{Nlon: 24, Nlat: 16, Nlayers: 3}
	d, err := grid.NewDecomp(spec, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.New(1, machine.Paragon()).Run(func(p *sim.Proc) error {
		cart := comm.NewCart2D(comm.World(p), 1, 1)
		l := grid.NewLocal(d, 0, 0)
		vars := newVars(l)
		flt := NewRowwiseFFT(cart, spec, l)
		flt.Apply(vars) // sizes the scratch and fills the damping cache
		slab := make([]float64, spec.Nlon*spec.Nlayers)
		tree := testing.AllocsPerRun(20, func() { cart.Row.AllgathervTree(slab) })
		if got, want := testing.AllocsPerRun(20, func() { flt.Apply(vars) }), tree*float64(len(vars)); got != want {
			return fmt.Errorf("Apply allocated %.1f times for %d variables; its collectives account for %.1f", got, len(vars), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// withProcs runs f with GOMAXPROCS set to procs and restores it after.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestFFTFilterApplyAllocFree pins the transpose FFT filter, balanced and
// not, at zero allocations per Apply on one rank, on 2x4 and 1x2 meshes and
// on a one-column 4x1 mesh once the warm-up calls have laid the filter out
// and filled the transport pools.  GOMAXPROCS is two per rank, so a rank
// with more than one batch of circles splits them over a helper goroutine
// (sim.Fan): the 1x1 rank, both 1x2 ranks, whose circles are assembled from
// the transpose's segments, and on 4x1 every balanced rank and the
// unbalanced polar ranks, whose lines never leave the fields.  Rank 0 reads
// runtime.MemStats around the measured rounds itself: testing.AllocsPerRun
// forces GOMAXPROCS 1, which runs every loop inline.  The count is
// process-wide, so every rank must run allocation-free; every rank loops the
// same number of rounds.
// Under the race detector that process-wide count is not exact (the pin has
// flaked there), so it runs only on plain builds, as CI's allocation step
// does; the oracle tests cover Apply under -race.
func TestFFTFilterApplyAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("process-wide allocation counts are not exact under -race")
	}
	spec := grid.Spec{Nlon: 24, Nlat: 16, Nlayers: 3}
	const warm, runs = 5, 20
	for _, mesh := range [][2]int{{1, 1}, {2, 4}, {1, 2}, {4, 1}} {
		py, px := mesh[0], mesh[1]
		d, err := grid.NewDecomp(spec, py, px)
		if err != nil {
			t.Fatal(err)
		}
		for _, balanced := range []bool{true, false} {
			m := sim.New(py*px, machine.Paragon())
			withProcs(2*py*px, func() {
				_, err = m.Run(func(p *sim.Proc) error {
					world := comm.World(p)
					cart := comm.NewCart2D(world, py, px)
					l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
					vars := newVars(l)
					flt := NewFFT(cart, spec, l, balanced)
					// The unbalanced filter never talks across mesh rows; the
					// barrier keeps them in step, so no rank finishes (and
					// frees its goroutine's state) inside the measured window.
					round := func() {
						flt.Apply(vars)
						world.Barrier()
					}
					for i := 0; i < warm; i++ {
						round()
					}
					var before, after runtime.MemStats
					if world.Rank() == 0 {
						runtime.ReadMemStats(&before)
					}
					for i := 0; i < runs; i++ {
						round()
					}
					if world.Rank() == 0 {
						runtime.ReadMemStats(&after)
						if n := (after.Mallocs - before.Mallocs) / runs; n != 0 {
							return fmt.Errorf("%dx%d balanced=%v: Apply allocated %d times per call; want 0", py, px, balanced, n)
						}
					}
					return nil
				})
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestLayoutStagesNoSelfTranspose pins what layout cuts on one-wide mesh
// rows, where every line a rank filters is its own: no transpose staging
// and no circle arena (a circle exists only in a worker's room), so the
// values are the balancing buffers and the segment arena, which holds only
// the home lines that balancing sends to another processor row — the lines
// that leave the rank's block.  Where no line moves — 1x1, and any
// one-column mesh without balancing — layout cuts no values at all.
func TestLayoutStagesNoSelfTranspose(t *testing.T) {
	spec := grid.Spec{Nlon: 24, Nlat: 16, Nlayers: 3}
	for _, mesh := range []struct {
		py       int
		balanced bool
	}{{1, true}, {4, true}, {4, false}} {
		py := mesh.py
		d, err := grid.NewDecomp(spec, py, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sim.New(py, machine.Paragon()).Run(func(p *sim.Proc) error {
			cart := comm.NewCart2D(comm.World(p), py, 1)
			l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
			f := NewFFT(cart, spec, l, mesh.balanced)
			f.Apply(newVars(l))
			leaving := 0
			for _, ln := range f.row.home {
				if f.tab.finalOwner[ln] != cart.MyRow {
					leaving++
				}
			}
			staged, balancing := 0, 0
			for _, bufs := range [][][]float64{f.parts, f.tOut} {
				for _, b := range bufs {
					staged += cap(b)
				}
			}
			for q := range f.rSend {
				balancing += cap(f.rSend[q]) + cap(f.rRecv[q])
			}
			values := cap(f.segArena) + staged + balancing
			if cap(f.segArena) != leaving*spec.Nlon || staged != 0 || values != leaving*spec.Nlon+balancing {
				return fmt.Errorf("%dx1 balanced=%v rank %d: segment arena %d, %d transpose values staged, %d values in all; want %d, 0 and %d",
					py, mesh.balanced, p.Rank(), cap(f.segArena), staged, values, leaving*spec.Nlon, leaving*spec.Nlon+balancing)
			}
			if moves := py > 1 && mesh.balanced; !moves && values != 0 {
				return fmt.Errorf("%dx1 balanced=%v rank %d: no line moves, yet layout cut %d values", py, mesh.balanced, p.Rank(), values)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestFFTFilterRelayout checks that one filter asked to work on a different
// list of variable kinds lays itself out again: its result equals a fresh
// filter's, bit for bit.
func TestFFTFilterRelayout(t *testing.T) {
	spec := grid.Spec{Nlon: 24, Nlat: 16, Nlayers: 2}
	const py, px = 2, 2
	d, err := grid.NewDecomp(spec, py, px)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(py*px, machine.Paragon())
	_, err = m.Run(func(p *sim.Proc) error {
		cart := comm.NewCart2D(comm.World(p), py, px)
		l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
		reused := NewFFT(cart, spec, l, true)
		reused.Apply(newVars(l))
		for _, pick := range [][]int{{2, 0, 3}, {1}, {0, 1, 2, 3}} {
			all, allFresh := newVars(l), newVars(l)
			var got, want []Variable
			for _, vi := range pick {
				got, want = append(got, all[vi]), append(want, allFresh[vi])
			}
			reused.Apply(got)
			NewFFT(cart, spec, l, true).Apply(want)
			for vi := range got {
				for j := 0; j < l.Nlat(); j++ {
					for i := 0; i < l.Nlon(); i++ {
						for k := 0; k < l.Nlayers(); k++ {
							if g, w := got[vi].Field.At(j, i, k), want[vi].Field.At(j, i, k); g != w {
								return fmt.Errorf("variables %v: %s(%d,%d,%d) = %g after relayout, fresh filter gives %g",
									pick, got[vi].Name, j, i, k, g, w)
							}
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

// TestConvolutionApplyAllocFree pins the ring convolution filter at zero
// allocations per Apply on one rank and on a 2x4 mesh once warm: the pack
// buffer has grown, the ring allgather receives into the gather's own
// buffers, and the kernel reads the segments through the filter's walk.
// As in TestFFTFilterApplyAllocFree, rank 0 reads runtime.MemStats around
// the measured rounds, a barrier ends every round, and the pin runs only
// without the race detector.
func TestConvolutionApplyAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("process-wide allocation counts are not exact under -race")
	}
	spec := grid.Spec{Nlon: 24, Nlat: 16, Nlayers: 3}
	const warm, runs = 5, 20
	for _, mesh := range [][2]int{{1, 1}, {2, 4}} {
		py, px := mesh[0], mesh[1]
		d, err := grid.NewDecomp(spec, py, px)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sim.New(py*px, machine.Paragon()).Run(func(p *sim.Proc) error {
			world := comm.World(p)
			cart := comm.NewCart2D(world, py, px)
			l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
			vars := newVars(l)
			flt := NewConvolution(cart, spec, l, Ring)
			round := func() {
				flt.Apply(vars)
				world.Barrier()
			}
			for i := 0; i < warm; i++ {
				round()
			}
			var before, after runtime.MemStats
			if world.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			for i := 0; i < runs; i++ {
				round()
			}
			if world.Rank() == 0 {
				runtime.ReadMemStats(&after)
				if n := (after.Mallocs - before.Mallocs) / runs; n != 0 {
					return fmt.Errorf("%dx%d: Apply allocated %d times per call; want 0", py, px, n)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
