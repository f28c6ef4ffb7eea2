package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"agcm/internal/grid"
	"agcm/internal/history"
	"agcm/internal/physics"
)

// stateBits returns the SHA-256 of a captured state: its step, then every
// variable's name and the bits of its values, in order.
func stateBits(f *history.File) string {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(f.Step))
	h.Write(b[:])
	for i, name := range f.Names {
		h.Write([]byte(name))
		for _, x := range f.Data[i] {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWholeStateBitsPinned pins every prognostic variable of the model —
// U, V, H, T, q and the leapfrog copies of U, V and H — after three steps
// with pairwise physics on the 2.5°×2°×3 grid, for the balanced FFT filter
// and for the ring convolution.  The 1×1 mesh and the 2×30 mesh, whose 144
// longitudes split into segments of 4 and 5 points, give the same bits, so
// one hash per filter covers both.  Unlike the dynamics pin, it covers T and
// q, the fields the moisture tables (math.Exp) feed.  Go's amd64 math.Exp
// takes an FMA path on CPUs that have FMA, so under GODEBUG=cpu.fma=off the
// hashes differ until those tables stop depending on it (ROADMAP item 21(b)).
func TestWholeStateBitsPinned(t *testing.T) {
	want := map[FilterVariant]string{
		FilterFFTBalanced:     "487f57e43216baafbda72f20c5bb0a62bfbdcad7eea3941383208ffe9a3783eb",
		FilterConvolutionRing: "dac70d8cf917904898bfe96c8c83f3b0f677e76b8e476932d79112fc6ee09fb2",
	}
	for _, fv := range []FilterVariant{FilterFFTBalanced, FilterConvolutionRing} {
		for _, mesh := range [][2]int{{1, 1}, {2, 30}} {
			t.Run(fmt.Sprintf("%v/%dx%d", fv, mesh[0], mesh[1]), func(t *testing.T) {
				cfg := testConfig(mesh[0], mesh[1], fv)
				cfg.Spec = grid.TwoByTwoPointFive(3)
				cfg.PhysicsScheme, cfg.PhysicsRounds = physics.Pairwise, 2
				cfg.CaptureState = true
				rep, err := Run(cfg, 3)
				if err != nil {
					t.Fatal(err)
				}
				if got := stateBits(rep.FinalState); got != want[fv] {
					t.Errorf("state bits hash to %s, want %s", got, want[fv])
				}
			})
		}
	}
}
