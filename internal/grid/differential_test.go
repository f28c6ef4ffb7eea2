package grid

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"agcm/internal/comm"
	"agcm/internal/sim"
)

// diffCase is one mesh of the differential test: a grid, its Py x Px
// decomposition and the halo widths of the two exchanged fields.
type diffCase struct {
	spec   Spec
	py, px int
	halos  [2]int
	seed   uint64
}

// splitmix is the splitmix64 finalizer: every cell's bits are a pure
// function of (case seed, rank, field, offset).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// randomBits fills buf with raw random float bits, NaNs and -0 included.
func randomBits(buf []float64, seed uint64) {
	for i := range buf {
		buf[i] = math.Float64frombits(splitmix(seed + uint64(i)))
	}
}

// drawDiffCase draws a py x px mesh over a grid whose extents split
// unevenly (blockRange's remainder rows and columns), with halo widths 1 or
// 2 and 1 to 9 layers.
func drawDiffCase(rng *rand.Rand, py, px int) diffCase {
	extent := func(p int) int { return max(4, p*(1+rng.Intn(3))+rng.Intn(p)) }
	return diffCase{
		spec:  Spec{Nlon: extent(px), Nlat: extent(py), Nlayers: 1 + rng.Intn(9)},
		py:    py,
		px:    px,
		halos: [2]int{1 + rng.Intn(2), 1 + rng.Intn(2)},
		seed:  rng.Uint64(),
	}
}

// diffRun is what one implementation left behind: every rank's padded
// fields after the exchange and the scatter, the root's gathered array, and
// the machine's clocks, traffic and event log.
type diffRun struct {
	fields [][][]float64 // [rank][field] padded storage
	global []float64
	res    *sim.Result
}

// run plays the case's program: exchange two fields of random padded
// contents (and a halo-0 field, which Exchange skips), refill one's interior
// and exchange it again, gather it, then scatter a random global array into
// a third field whose halos hold random bits.  ref selects the per-point
// reference bodies.
func (dc diffCase) run(t *testing.T, ref bool) diffRun {
	t.Helper()
	d, err := NewDecomp(dc.spec, dc.py, dc.px)
	if err != nil {
		t.Fatal(err)
	}
	n := dc.py * dc.px
	out := diffRun{fields: make([][][]float64, n)}
	m := sim.New(n, flatModel{})
	m.SetEventLog(true)
	out.res, err = m.Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, dc.py, dc.px)
		l := NewLocal(d, cart.MyRow, cart.MyCol)
		seed := dc.seed + uint64(world.Rank())<<40
		a, b, flat := NewField(l, dc.halos[0]), NewField(l, dc.halos[1]), NewField(l, 0)
		c := NewField(l, dc.halos[0])
		for i, f := range []*Field{a, b, flat, c} {
			randomBits(f.data, seed+uint64(i)<<32)
		}
		global := make([]float64, dc.spec.Points())
		randomBits(global, dc.seed^0xa5a5)
		ex := NewExchanger(cart)
		exchange, gather, scatter := ex.Exchange, ex.Gather, ex.Scatter
		if ref {
			exchange = func(fs ...*Field) { refExchange(cart, fs...) }
			gather, scatter = refGather, refScatter
		}
		exchange(a, flat, b)
		for j := 0; j < l.Nlat(); j++ {
			randomBits(b.cols(j, 0, l.Nlon()), seed+5<<32+uint64(j)<<20)
		}
		exchange(b)
		g := gather(world, b)
		scatter(world, global, c)
		if world.Rank() == 0 {
			out.global = g
		}
		for _, f := range []*Field{a, b, flat, c} {
			out.fields[world.Rank()] = append(out.fields[world.Rank()], f.data)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%+v (ref %v): %v", dc, ref, err)
	}
	return out
}

// sameBits reports the first index where a and b differ bit for bit.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestSpanCopiesDifferential runs the Exchanger's span-copy exchange,
// gather and scatter against the per-point bodies in reference_test.go on
// random meshes from 1x1 to 8x8 — one-wide rows and columns, and Px == 2,
// where the east and west neighbours are the same rank — and compares every
// padded cell bit for bit, the gathered array, and every clock, message and
// event of the machine.
func TestSpanCopiesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	meshes := [][2]int{{1, 1}, {1, 2}, {1, 8}, {2, 1}, {8, 1}, {2, 2}, {5, 2}, {8, 8}}
	for range 16 {
		meshes = append(meshes, [2]int{1 + rng.Intn(8), 1 + rng.Intn(8)})
	}
	for _, mesh := range meshes {
		dc := drawDiffCase(rng, mesh[0], mesh[1])
		name := fmt.Sprintf("%dx%d %+v halos %v", dc.py, dc.px, dc.spec, dc.halos)
		got, want := dc.run(t, false), dc.run(t, true)
		for r := range want.fields {
			for fi := range want.fields[r] {
				if i, ok := sameBits(got.fields[r][fi], want.fields[r][fi]); !ok {
					t.Fatalf("%s: rank %d field %d differs at padded offset %d", name, r, fi, i)
				}
			}
		}
		if i, ok := sameBits(got.global, want.global); !ok {
			t.Fatalf("%s: gathered array differs at %d", name, i)
		}
		if !reflect.DeepEqual(got.res, want.res) {
			t.Fatalf("%s: clocks, traffic or events differ:\n got %+v\nwant %+v", name, got.res, want.res)
		}
	}
}
