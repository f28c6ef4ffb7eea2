package filter

import (
	"fmt"
	"math"
	"testing"

	"agcm/internal/comm"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/sim"
)

// initValue gives every (variable, j, i, k) a deterministic, smooth but
// non-trivial value.
func initValue(v, j, i, k int) float64 {
	return math.Sin(float64(j)*0.37+float64(v)) * math.Cos(float64(i)*0.21) *
		(1 + 0.1*float64(k)) * (1 + 0.01*float64(i%7))
}

// newVars allocates and initializes the standard test variable set on a
// subdomain: two strongly filtered, two weakly filtered.
func newVars(l grid.Local) []Variable {
	names := []string{"u", "v", "T", "q"}
	kinds := []Kind{Strong, Strong, Weak, Weak}
	vars := make([]Variable, 4)
	for vi := range vars {
		f := grid.NewField(l, 1)
		for j := 0; j < l.Nlat(); j++ {
			for i := 0; i < l.Nlon(); i++ {
				for k := 0; k < l.Nlayers(); k++ {
					f.Set(j, i, k, initValue(vi, l.GlobalLat(j), l.GlobalLon(i), k))
				}
			}
		}
		vars[vi] = Variable{Name: names[vi], Kind: kinds[vi], Field: f}
	}
	return vars
}

// sequentialOracle runs the sequential filter on a 1x1 decomposition and
// returns the gathered global result for each variable.
func sequentialOracle(t *testing.T, spec grid.Spec) [][]float64 {
	t.Helper()
	d, err := grid.NewDecomp(spec, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	l := grid.NewLocal(d, 0, 0)
	vars := newVars(l)
	Sequential(spec, vars)
	out := make([][]float64, len(vars))
	for vi, v := range vars {
		global := make([]float64, spec.Points())
		p := 0
		for j := 0; j < spec.Nlat; j++ {
			for i := 0; i < spec.Nlon; i++ {
				for k := 0; k < spec.Nlayers; k++ {
					global[p] = v.Field.At(j, i, k)
					p++
				}
			}
		}
		out[vi] = global
	}
	return out
}

// runParallelFilter applies the named variant on a py*px mesh and returns
// the gathered per-variable global fields plus the sim result.
func runParallelFilter(t *testing.T, spec grid.Spec, py, px int,
	mk func(cart *comm.Cart2D, local grid.Local) Parallel) ([][]float64, *sim.Result) {
	t.Helper()
	d, err := grid.NewDecomp(spec, py, px)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, 4)
	m := sim.New(py*px, machine.Paragon())
	res, err := m.Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, py, px)
		l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
		vars := newVars(l)
		flt := mk(cart, l)
		p.Account(sim.Filter, func() { flt.Apply(vars) })
		for vi, v := range vars {
			g := grid.Gather(world, cart, v.Field)
			if world.Rank() == 0 {
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

func variantMakers(spec grid.Spec) map[string]func(cart *comm.Cart2D, local grid.Local) Parallel {
	return map[string]func(cart *comm.Cart2D, local grid.Local) Parallel{
		"convolution-ring": func(c *comm.Cart2D, l grid.Local) Parallel {
			return NewConvolution(c, spec, l, Ring)
		},
		"convolution-tree": func(c *comm.Cart2D, l grid.Local) Parallel {
			return NewConvolution(c, spec, l, Tree)
		},
		"fft": func(c *comm.Cart2D, l grid.Local) Parallel {
			return NewFFT(c, spec, l, false)
		},
		"fft-load-balanced": func(c *comm.Cart2D, l grid.Local) Parallel {
			return NewFFT(c, spec, l, true)
		},
		"fft-rowwise": func(c *comm.Cart2D, l grid.Local) Parallel {
			return NewRowwiseFFT(c, spec, l)
		},
	}
}

func TestParallelVariantsMatchSequentialOracle(t *testing.T) {
	// The strongest correctness statement in the package: every parallel
	// variant on every mesh produces the same fields as the sequential
	// filter, to round-off.
	spec := grid.Spec{Nlon: 36, Nlat: 24, Nlayers: 3}
	want := sequentialOracle(t, spec)
	meshes := [][2]int{{1, 1}, {1, 4}, {2, 2}, {4, 1}, {3, 4}, {6, 3}}
	for name, mk := range variantMakers(spec) {
		for _, mesh := range meshes {
			py, px := mesh[0], mesh[1]
			t.Run(fmt.Sprintf("%s/%dx%d", name, py, px), func(t *testing.T) {
				got, _ := runParallelFilter(t, spec, py, px, mk)
				for vi := range want {
					for idx := range want[vi] {
						if math.Abs(got[vi][idx]-want[vi][idx]) > 1e-9 {
							t.Fatalf("variable %d index %d: got %g want %g",
								vi, idx, got[vi][idx], want[vi][idx])
						}
					}
				}
			})
		}
	}
}

func TestFilterIsDeterministicAcrossRuns(t *testing.T) {
	spec := grid.Spec{Nlon: 24, Nlat: 16, Nlayers: 2}
	mk := variantMakers(spec)["fft-load-balanced"]
	_, res1 := runParallelFilter(t, spec, 4, 2, mk)
	_, res2 := runParallelFilter(t, spec, 4, 2, mk)
	for r := range res1.Clocks {
		if res1.Clocks[r] != res2.Clocks[r] {
			t.Fatalf("rank %d virtual clock differs across runs", r)
		}
	}
}

func TestFFTFilterFasterThanConvolutionAtScale(t *testing.T) {
	// Tables 8-11's first-order story: on a many-node mesh the FFT
	// filter beats convolution, and load balancing beats plain FFT.
	spec := grid.TwoByTwoPointFive(9)
	makers := variantMakers(spec)
	times := map[string]float64{}
	for _, name := range []string{"convolution-ring", "fft", "fft-load-balanced"} {
		_, res := runParallelFilter(t, spec, 8, 8, makers[name])
		times[name] = res.MaxAccount(sim.Filter)
	}
	if !(times["fft"] < times["convolution-ring"]) {
		t.Errorf("fft (%g s) not faster than convolution (%g s) on 8x8",
			times["fft"], times["convolution-ring"])
	}
	if !(times["fft-load-balanced"] < times["fft"]) {
		t.Errorf("load-balanced fft (%g s) not faster than plain fft (%g s) on 8x8",
			times["fft-load-balanced"], times["fft"])
	}
}

func TestLoadBalanceEvensFilterTime(t *testing.T) {
	// With load balancing, per-rank filter time must be much more even
	// than without: compare the imbalance (max-avg)/avg across ranks.
	spec := grid.TwoByTwoPointFive(9)
	makers := variantMakers(spec)
	imbalance := func(name string) float64 {
		_, res := runParallelFilter(t, spec, 8, 2, makers[name])
		loads := res.Accounts[sim.Filter]
		sum, max := 0.0, 0.0
		for _, v := range loads {
			sum += v
			if v > max {
				max = v
			}
		}
		avg := sum / float64(len(loads))
		return (max - avg) / avg
	}
	un, bal := imbalance("fft"), imbalance("fft-load-balanced")
	if bal >= un {
		t.Fatalf("balanced imbalance %.2f not below unbalanced %.2f", bal, un)
	}
	if bal > 0.5 {
		t.Errorf("balanced filter imbalance %.2f still above 50%%", bal)
	}
}

func TestTreeConvolutionUsesFewerMessagesWorthOfTimeOnWideMesh(t *testing.T) {
	// Sanity on the two original data motions: both must agree with the
	// oracle (covered above); here just check both complete and produce
	// nonzero filter time on a polar row.
	spec := grid.Spec{Nlon: 32, Nlat: 16, Nlayers: 2}
	makers := variantMakers(spec)
	for _, name := range []string{"convolution-ring", "convolution-tree"} {
		_, res := runParallelFilter(t, spec, 2, 4, makers[name])
		if res.MaxAccount(sim.Filter) <= 0 {
			t.Errorf("%s: no filter time accounted", name)
		}
	}
}
