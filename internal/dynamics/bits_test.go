package dynamics

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"agcm/internal/comm"
	"agcm/internal/filter"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/sim"
)

// dynamicsBits steps the balanced-FFT-filtered model steps times on a py×px
// mesh of spec, with vertical diffusion kv (0 = off), and returns the
// SHA-256 of the gathered interior bits of U, V, H, PrevU, PrevV and PrevH,
// field by field.
func dynamicsBits(t testing.TB, spec grid.Spec, py, px, steps int, kv float64) string {
	t.Helper()
	d, err := grid.NewDecomp(spec, py, px)
	if err != nil {
		t.Fatal(err)
	}
	dt := 0.8 * CFLTimeStep(spec, filter.Strong.CritLat())
	h := sha256.New()
	_, err = sim.New(py*px, machine.CrayT3D()).Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, py, px)
		l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
		s := NewState(l)
		InitSolidBody(s, 20, 4)
		dy := New(cart, spec, l, dt, filter.NewFFT(cart, spec, l, true))
		dy.SetVerticalDiffusion(kv)
		for n := 0; n < steps; n++ {
			dy.Step(s)
		}
		for _, f := range []*grid.Field{s.U, s.V, s.H, s.PrevU, s.PrevV, s.PrevH} {
			g := grid.Gather(world, cart, f)
			if world.Rank() != 0 {
				continue
			}
			var b [8]byte
			for _, x := range g {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
				h.Write(b[:])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The hashes every mesh and GOMAXPROCS must give after four steps, without
// and with vertical diffusion.
const (
	dynamicsPinnedHash      = "25185b46529308c80e2a7a9aef882215c61c4bb0ab32c14688a75fd2110a6452"
	dynamicsMixedPinnedHash = "0a03c3ea37ac07cec3106cc37ddb6d1a89898785eec473657ff5c48bb029a768"
)

// TestDynamicsBitsPinned pins the dynamics' output bits on the 2.5°×2°×9
// grid: four Steps — the first step's forward Euler and three leapfrog
// steps — of the balanced-FFT-filtered model, every prognostic field and
// its leapfrog copy hashed.  Every point's arithmetic is fixed whichever
// rank owns it, so the 1×1, 2×2 and 8×30 meshes (rows of 4 and 5 columns
// on the last; every mesh has the north-pole row) give the same bits; and
// whichever worker runs its row, so GOMAXPROCS 1, 2 and 8 — which split a
// small machine's rows over different numbers of workers (sim.Fan) — do
// too.
func TestDynamicsBitsPinned(t *testing.T) {
	spec := grid.TwoByTwoPointFive(9)
	check := func(procs, py, px int, kv float64, want string) {
		t.Run(fmt.Sprintf("procs=%d/%dx%d/kv=%g", procs, py, px, kv), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			if got := dynamicsBits(t, spec, py, px, 4, kv); got != want {
				t.Errorf("field bits hash to %s, want %s", got, want)
			}
		})
	}
	for _, procs := range []int{1, 2, 8} {
		for _, mesh := range [][2]int{{1, 1}, {2, 2}, {8, 30}} {
			check(procs, mesh[0], mesh[1], 0, dynamicsPinnedHash)
		}
	}
	check(2, 2, 2, 0.2, dynamicsMixedPinnedHash)
}

// BenchmarkStep times one Step of one rank of the benchmark's single-rank
// shape: the 2.5°×2°×9 grid on a 1×1 mesh with the balanced FFT filter.
// Run it with -cpu 1,2 to see the row loops inline and split over two
// workers (sim.Fan).
func BenchmarkStep(b *testing.B) {
	spec := grid.TwoByTwoPointFive(9)
	d, err := grid.NewDecomp(spec, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	dt := 0.8 * CFLTimeStep(spec, filter.Strong.CritLat())
	_, err = sim.New(1, machine.CrayT3D()).Run(func(p *sim.Proc) error {
		cart := comm.NewCart2D(comm.World(p), 1, 1)
		l := grid.NewLocal(d, 0, 0)
		s := NewState(l)
		InitSolidBody(s, 20, 4)
		dy := New(cart, spec, l, dt, filter.NewFFT(cart, spec, l, true))
		// Warm-up: the first step is forward Euler and lays out the
		// filter; the timed ones are leapfrog steps.
		dy.Step(s)
		dy.Step(s)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			dy.Step(s)
		}
		b.StopTimer()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
