package filter

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"agcm/internal/comm"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/sim"
)

// referenceApply is Convolution.Apply as the filter first computed it:
// every gathered line is reassembled into a complete circle, padded with
// convPad wraparound values and convolved by convolveExt.  It charges the
// same flops, so the virtual clocks must match as well as the bits.
func referenceApply(c *Convolution, vars []Variable) {
	g, p := &c.g, c.cart.World.Proc()
	n, w, lo := g.spec.Nlon, g.local.Nlon(), g.offs[c.cart.MyCol]
	full, dst := make([]float64, n+convPad), make([]float64, w)
	for _, v := range vars {
		if !g.filter(v.Kind) {
			continue
		}
		kernel := c.resp[v.Kind].kernel
		for k := 0; k < g.spec.Nlayers; k++ {
			g.gather(v.Field, k, k+1)
			for i, localJ := range g.rows {
				g.circle(i, full)
				for q := 0; q < convPad; q++ {
					full[n+q] = full[q%n]
				}
				convolveExt(kernel[g.local.GlobalLat(localJ)], full, dst, lo)
				p.Compute(float64(2 * n * w))
				v.Field.SetRowSlice(localJ, k, dst)
			}
		}
	}
}

// runConvolution applies the convolution filter twice through apply on a
// py×px mesh and returns every variable's gathered field and the run's
// result.
func runConvolution(t *testing.T, spec grid.Spec, py, px int, topo Topology,
	apply func(*Convolution, []Variable)) ([][]float64, *sim.Result) {
	t.Helper()
	d, err := grid.NewDecomp(spec, py, px)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, 4)
	res, err := sim.New(py*px, machine.Paragon()).Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, py, px)
		l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
		vars := newVars(l)
		flt := NewConvolution(cart, spec, l, topo)
		apply(flt, vars)
		apply(flt, vars)
		for vi, v := range vars {
			if g := grid.Gather(world, cart, v.Field); world.Rank() == 0 {
				out[vi] = g
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, res
}

// TestConvolutionMatchesReference checks Convolution.Apply against
// referenceApply bit for bit — every field value, every rank's clock and
// traffic — on meshes whose segments are 1 to 144 points wide, uneven
// splits included, for both topologies.
func TestConvolutionMatchesReference(t *testing.T) {
	cases := []struct {
		spec   grid.Spec
		meshes [][2]int
	}{
		{grid.TwoByTwoPointFive(2), [][2]int{{1, 1}, {2, 30}, {3, 7}, {2, 16}}},
		{grid.Spec{Nlon: 36, Nlat: 24, Nlayers: 3}, [][2]int{{1, 4}, {3, 5}, {2, 7}, {4, 9}, {2, 36}, {1, 3}}},
		{grid.Spec{Nlon: 25, Nlat: 12, Nlayers: 2}, [][2]int{{1, 1}, {2, 3}, {1, 6}, {3, 25}}},
	}
	for _, tc := range cases {
		for _, mesh := range tc.meshes {
			for _, topo := range []Topology{Ring, Tree} {
				name := fmt.Sprintf("nlon%d/%dx%d/topology%d", tc.spec.Nlon, mesh[0], mesh[1], topo)
				t.Run(name, func(t *testing.T) {
					got, gotRes := runConvolution(t, tc.spec, mesh[0], mesh[1], topo, (*Convolution).Apply)
					want, wantRes := runConvolution(t, tc.spec, mesh[0], mesh[1], topo, referenceApply)
					for vi := range want {
						for i := range want[vi] {
							if math.Float64bits(got[vi][i]) != math.Float64bits(want[vi][i]) {
								t.Fatalf("variable %d value %d: Apply gives %v, the reference %v", vi, i, got[vi][i], want[vi][i])
							}
						}
					}
					if !slices.Equal(gotRes.Clocks, wantRes.Clocks) ||
						!slices.Equal(gotRes.MessagesSent, wantRes.MessagesSent) ||
						!slices.Equal(gotRes.BytesSent, wantRes.BytesSent) {
						t.Fatalf("clocks or traffic differ: %v %v %v vs %v %v %v", gotRes.Clocks, gotRes.MessagesSent,
							gotRes.BytesSent, wantRes.Clocks, wantRes.MessagesSent, wantRes.BytesSent)
					}
				})
			}
		}
	}
}

// convPad is the wraparound padding convolveExt needs beyond the circle:
// the widest output group reads seven points past its base index.
const convPad = 7

// convolveExt is the convolution kernel on a padded circle: ext holds the
// n = len(coeffs) row values followed by convPad wraparound copies of its
// start, so no index ever needs a modulo.  Outputs are computed eight at a
// time with independent accumulators to hide the add latency of the serial
// sum; each accumulator still adds its terms in ascending-d order, so every
// output is bit-identical to the textbook one-point-at-a-time loop.
func convolveExt(coeffs, ext, dst []float64, i0 int) {
	n := len(coeffs)
	if len(ext) < n+convPad {
		panic("filter: convolveExt needs a padded row")
	}
	m := len(dst)
	t0 := 0
	for ; t0+8 <= m; t0 += 8 {
		i := i0 + t0
		if i >= n {
			i -= n
		}
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		// d ascends 0..n-1 as k = (i-d) mod n walks i..0 then n-1..i+1.
		for k := i; k >= 0; k-- {
			c := coeffs[i-k]
			s0 += c * ext[k]
			s1 += c * ext[k+1]
			s2 += c * ext[k+2]
			s3 += c * ext[k+3]
			s4 += c * ext[k+4]
			s5 += c * ext[k+5]
			s6 += c * ext[k+6]
			s7 += c * ext[k+7]
		}
		for k := n - 1; k > i; k-- {
			c := coeffs[i-k+n]
			s0 += c * ext[k]
			s1 += c * ext[k+1]
			s2 += c * ext[k+2]
			s3 += c * ext[k+3]
			s4 += c * ext[k+4]
			s5 += c * ext[k+5]
			s6 += c * ext[k+6]
			s7 += c * ext[k+7]
		}
		dst[t0] = s0
		dst[t0+1] = s1
		dst[t0+2] = s2
		dst[t0+3] = s3
		dst[t0+4] = s4
		dst[t0+5] = s5
		dst[t0+6] = s6
		dst[t0+7] = s7
	}
	// Narrow subdomains (wide meshes) rarely reach the 8-wide block, so
	// the tail runs a 4-wide group before falling back to single outputs.
	for ; t0+4 <= m; t0 += 4 {
		i := i0 + t0
		if i >= n {
			i -= n
		}
		var s0, s1, s2, s3 float64
		for k := i; k >= 0; k-- {
			c := coeffs[i-k]
			s0 += c * ext[k]
			s1 += c * ext[k+1]
			s2 += c * ext[k+2]
			s3 += c * ext[k+3]
		}
		for k := n - 1; k > i; k-- {
			c := coeffs[i-k+n]
			s0 += c * ext[k]
			s1 += c * ext[k+1]
			s2 += c * ext[k+2]
			s3 += c * ext[k+3]
		}
		dst[t0] = s0
		dst[t0+1] = s1
		dst[t0+2] = s2
		dst[t0+3] = s3
	}
	for ; t0 < m; t0++ {
		i := i0 + t0
		if i >= n {
			i -= n
		}
		var s float64
		for k := i; k >= 0; k-- {
			s += coeffs[i-k] * ext[k]
		}
		for k := n - 1; k > i; k-- {
			s += coeffs[i-k+n] * ext[k]
		}
		dst[t0] = s
	}
}
