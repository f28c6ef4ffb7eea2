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

// convolutionBits applies the convolution filter rounds times on a py×px
// mesh of spec and returns the SHA-256 of every variable's gathered interior
// bits, variable by variable.
func convolutionBits(t *testing.T, spec grid.Spec, py, px int, topo Topology, rounds int) string {
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
		flt := NewConvolution(cart, spec, l, topo)
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

// TestConvolutionBitsPinned pins the convolution filter's output bits on the
// 2.5°×2° grid, whose 144 longitudes split into segments of 4 and 5 points
// on 30 mesh columns, 20 and 21 on 7, 36 on 4 and 48 on 3: three rounds of
// Apply, ring and tree, every variable's interior hashed.  Every output sums
// its terms in one fixed order whatever the mesh, so all meshes give the same
// bits; any change to that order moves the hash.  It runs with the pair
// kernel's assembly (where the host has AVX2) and with its Go form forced.
func TestConvolutionBitsPinned(t *testing.T) {
	const want = "ab615a64068454092e51c87ee9825a4b366eae29225e822b828efa7a2e44f402"
	spec := grid.TwoByTwoPointFive(2)
	for _, asm := range []bool{true, false} {
		if asm && !pairAsm {
			t.Log("no AVX2: the assembly half is skipped")
			continue
		}
		t.Run(fmt.Sprintf("asm=%v", asm), func(t *testing.T) {
			if !asm {
				forcePairGo(t)
			}
			for _, mesh := range [][2]int{{1, 1}, {2, 3}, {4, 4}, {4, 7}, {2, 30}} {
				for _, topo := range []Topology{Ring, Tree} {
					if got := convolutionBits(t, spec, mesh[0], mesh[1], topo, 3); got != want {
						t.Errorf("%dx%d topology %d: field bits hash to %s, want %s", mesh[0], mesh[1], topo, got, want)
					}
				}
			}
		})
	}
}
