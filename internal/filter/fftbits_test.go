package filter

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"agcm/internal/comm"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/sim"
)

// fftFilterBits applies the transpose FFT filter rounds times on a py×px
// mesh of spec and returns the SHA-256 of every variable's gathered interior
// bits, variable by variable.  tune, if not nil, adjusts each rank's filter
// before its first Apply.
func fftFilterBits(t *testing.T, spec grid.Spec, py, px int, balanced bool, rounds int, tune func(*FFTFilter)) string {
	t.Helper()
	d, err := grid.NewDecomp(spec, py, px)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	_, err = sim.New(py*px, machine.Paragon()).Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, py, px)
		l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
		vars := newVars(l)
		flt := NewFFT(cart, spec, l, balanced)
		if tune != nil {
			tune(flt)
		}
		for r := 0; r < rounds; r++ {
			flt.Apply(vars)
		}
		for _, v := range vars {
			g := grid.Gather(world, cart, v.Field)
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

// fftPinnedHash is the hash every mesh, balanced or not, must give.
const fftPinnedHash = "c988602e58cff6deb822d1f7e3375ac2aa3c7ba1826f4e8f0a70dfeefa4708d1"

// TestFFTFilterBitsPinned pins the FFT filter's output bits on the 2.5°×2°
// grid: three rounds of Apply, balanced and unbalanced, every variable's
// interior hashed.  Each line's arithmetic is fixed whichever rank filters
// it, so every mesh gives the same bits; and whichever worker filters it,
// so GOMAXPROCS 1, 2 and 8 — which split a small machine's circles over
// different numbers of workers (sim.Fan) — do too.
func TestFFTFilterBitsPinned(t *testing.T) {
	spec := grid.TwoByTwoPointFive(2)
	for _, procs := range []int{1, 2, 8} {
		for _, mesh := range [][2]int{{1, 1}, {2, 2}, {4, 4}, {4, 1}, {8, 30}} {
			for _, balanced := range []bool{true, false} {
				t.Run(fmt.Sprintf("procs=%d/%dx%d/balanced=%v", procs, mesh[0], mesh[1], balanced), func(t *testing.T) {
					var got string
					withProcs(procs, func() { got = fftFilterBits(t, spec, mesh[0], mesh[1], balanced, 3, nil) })
					if got != fftPinnedHash {
						t.Errorf("field bits hash to %s, want %s", got, fftPinnedHash)
					}
				})
			}
		}
	}
}
