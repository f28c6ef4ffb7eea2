package grid

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"agcm/internal/comm"
	"agcm/internal/sim"
)

type flatModel struct{}

func (flatModel) FlopSeconds(n float64) float64         { return n * 1e-7 }
func (flatModel) MemSeconds(n float64) float64          { return n * 1e-9 }
func (flatModel) SendOverheadSeconds(bytes int) float64 { return 1e-5 }
func (flatModel) RecvOverheadSeconds(bytes int) float64 { return 1e-5 }
func (flatModel) NetworkSeconds(bytes int) float64      { return 1e-4 + float64(bytes)*1e-8 }

// globalValue is the test pattern: a unique value per (global j, i, k).
func globalValue(j, i, k int) float64 {
	return float64(j*100000 + i*100 + k)
}

// runMesh executes body on a py*px machine with a cart topology.
func runMesh(t *testing.T, py, px int, spec Spec, body func(world *comm.Comm, cart *comm.Cart2D, l Local) error) {
	t.Helper()
	d, err := NewDecomp(spec, py, px)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(py*px, flatModel{})
	_, err = m.Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, py, px)
		return body(world, cart, NewLocal(d, cart.MyRow, cart.MyCol))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeHalosAllMeshes(t *testing.T) {
	spec := Spec{Nlon: 12, Nlat: 10, Nlayers: 2}
	for _, mesh := range [][2]int{{1, 1}, {1, 3}, {2, 1}, {2, 2}, {2, 3}, {5, 4}} {
		py, px := mesh[0], mesh[1]
		t.Run(fmt.Sprintf("%dx%d", py, px), func(t *testing.T) {
			runMesh(t, py, px, spec, func(world *comm.Comm, cart *comm.Cart2D, l Local) error {
				f := NewField(l, 1)
				for j := 0; j < l.Nlat(); j++ {
					for i := 0; i < l.Nlon(); i++ {
						for k := 0; k < 2; k++ {
							f.Set(j, i, k, globalValue(l.GlobalLat(j), l.GlobalLon(i), k))
						}
					}
				}
				NewExchanger(cart).Exchange(f)
				// East/west halos must hold the periodic neighbours.
				for j := 0; j < l.Nlat(); j++ {
					gj := l.GlobalLat(j)
					for k := 0; k < 2; k++ {
						wantW := globalValue(gj, (l.Lon0-1+spec.Nlon)%spec.Nlon, k)
						if got := f.At(j, -1, k); got != wantW {
							return fmt.Errorf("west halo at j=%d k=%d: got %g want %g", j, k, got, wantW)
						}
						wantE := globalValue(gj, l.Lon1%spec.Nlon, k)
						if got := f.At(j, l.Nlon(), k); got != wantE {
							return fmt.Errorf("east halo at j=%d k=%d: got %g want %g", j, k, got, wantE)
						}
					}
				}
				// North/south halos where a neighbour exists.
				for i := 0; i < l.Nlon(); i++ {
					gi := l.GlobalLon(i)
					for k := 0; k < 2; k++ {
						if l.Lat0 > 0 {
							want := globalValue(l.Lat0-1, gi, k)
							if got := f.At(-1, i, k); got != want {
								return fmt.Errorf("south halo at i=%d: got %g want %g", i, got, want)
							}
						}
						if l.Lat1 < spec.Nlat {
							want := globalValue(l.Lat1, gi, k)
							if got := f.At(l.Nlat(), i, k); got != want {
								return fmt.Errorf("north halo at i=%d: got %g want %g", i, got, want)
							}
						}
					}
				}
				return nil
			})
		})
	}
}

func TestExchangeFillsCornerGhostCells(t *testing.T) {
	// The C-grid staggering averages read diagonal-neighbour values
	// (e.g. U at (j+1, i-1)), so corner ghost cells must be correct.
	spec := Spec{Nlon: 12, Nlat: 12, Nlayers: 1}
	runMesh(t, 3, 3, spec, func(world *comm.Comm, cart *comm.Cart2D, l Local) error {
		f := NewField(l, 1)
		for j := 0; j < l.Nlat(); j++ {
			for i := 0; i < l.Nlon(); i++ {
				f.Set(j, i, 0, globalValue(l.GlobalLat(j), l.GlobalLon(i), 0))
			}
		}
		NewExchanger(cart).Exchange(f)
		check := func(j, i int) error {
			gj := l.Lat0 + j
			if gj < 0 || gj >= spec.Nlat {
				return nil // pole-side halo: left to the polar BC
			}
			gi := ((l.Lon0+i)%spec.Nlon + spec.Nlon) % spec.Nlon
			want := globalValue(gj, gi, 0)
			if got := f.At(j, i, 0); got != want {
				return fmt.Errorf("corner (%d,%d): got %g want %g", j, i, got, want)
			}
			return nil
		}
		for _, c := range [][2]int{{-1, -1}, {-1, l.Nlon()}, {l.Nlat(), -1}, {l.Nlat(), l.Nlon()}} {
			if err := check(c[0], c[1]); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestExchangeHalosZeroHaloNoOp(t *testing.T) {
	spec := Spec{Nlon: 8, Nlat: 8, Nlayers: 1}
	runMesh(t, 2, 2, spec, func(world *comm.Comm, cart *comm.Cart2D, l Local) error {
		f := NewField(l, 0)
		NewExchanger(cart).Exchange(f) // must not deadlock or panic
		return nil
	})
}

func TestExchangeMultipleFields(t *testing.T) {
	spec := Spec{Nlon: 8, Nlat: 6, Nlayers: 1}
	runMesh(t, 2, 2, spec, func(world *comm.Comm, cart *comm.Cart2D, l Local) error {
		a := NewField(l, 1)
		b := NewField(l, 1)
		for j := 0; j < l.Nlat(); j++ {
			for i := 0; i < l.Nlon(); i++ {
				a.Set(j, i, 0, globalValue(l.GlobalLat(j), l.GlobalLon(i), 0))
				b.Set(j, i, 0, -globalValue(l.GlobalLat(j), l.GlobalLon(i), 0))
			}
		}
		NewExchanger(cart).Exchange(a, b)
		// Spot-check that each field received its own data.
		wantA := globalValue(l.GlobalLat(0), (l.Lon0-1+spec.Nlon)%spec.Nlon, 0)
		if a.At(0, -1, 0) != wantA {
			return fmt.Errorf("field a west halo wrong")
		}
		if b.At(0, -1, 0) != -wantA {
			return fmt.Errorf("field b west halo wrong (cross-field mixup)")
		}
		return nil
	})
}

func TestGatherScatterPropertyRandomMeshes(t *testing.T) {
	// Property: scatter(gather(f)) == f for random specs and meshes.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		spec := Spec{
			Nlon:    4 + rng.Intn(20),
			Nlat:    4 + rng.Intn(16),
			Nlayers: 1 + rng.Intn(4),
		}
		py := 1 + rng.Intn(4)
		px := 1 + rng.Intn(4)
		if py > spec.Nlat {
			py = spec.Nlat
		}
		if px > spec.Nlon {
			px = spec.Nlon
		}
		runMesh(t, py, px, spec, func(world *comm.Comm, cart *comm.Cart2D, l Local) error {
			f := NewField(l, 1)
			for j := 0; j < l.Nlat(); j++ {
				for i := 0; i < l.Nlon(); i++ {
					for k := 0; k < l.Nlayers(); k++ {
						f.Set(j, i, k, globalValue(l.GlobalLat(j), l.GlobalLon(i), k))
					}
				}
			}
			g := Gather(world, cart, f)
			back := NewField(l, 1)
			Scatter(world, cart, g, back)
			if !f.InteriorEqual(back, 0) {
				return fmt.Errorf("trial %d (%+v mesh %dx%d): round trip differs",
					trial, spec, py, px)
			}
			return nil
		})
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	spec := Spec{Nlon: 12, Nlat: 9, Nlayers: 3}
	for _, mesh := range [][2]int{{1, 1}, {3, 2}, {2, 4}} {
		py, px := mesh[0], mesh[1]
		t.Run(fmt.Sprintf("%dx%d", py, px), func(t *testing.T) {
			runMesh(t, py, px, spec, func(world *comm.Comm, cart *comm.Cart2D, l Local) error {
				f := NewField(l, 1)
				for j := 0; j < l.Nlat(); j++ {
					for i := 0; i < l.Nlon(); i++ {
						for k := 0; k < 3; k++ {
							f.Set(j, i, k, globalValue(l.GlobalLat(j), l.GlobalLon(i), k))
						}
					}
				}
				global := Gather(world, cart, f)
				if world.Rank() == 0 {
					if len(global) != spec.Points() {
						return fmt.Errorf("gathered %d values", len(global))
					}
					for j := 0; j < spec.Nlat; j++ {
						for i := 0; i < spec.Nlon; i++ {
							for k := 0; k < 3; k++ {
								want := globalValue(j, i, k)
								if got := global[(j*spec.Nlon+i)*3+k]; got != want {
									return fmt.Errorf("global[%d,%d,%d] = %g, want %g", j, i, k, got, want)
								}
							}
						}
					}
				} else if global != nil {
					return fmt.Errorf("non-root received global data")
				}
				// Scatter back into a fresh field and compare.
				g := NewField(l, 1)
				Scatter(world, cart, global, g)
				if !f.InteriorEqual(g, 0) {
					return fmt.Errorf("scatter round-trip mismatch on rank %d", world.Rank())
				}
				return nil
			})
		})
	}
}

// TestExchangeRejectsWrongLengthHalo: a neighbour whose halo message is one
// float too long makes the receiving rank panic, naming the source, the tag
// and both lengths, in either direction.  Without the check the receive
// would grow its buffer elsewhere and leave a stale halo.
func TestExchangeRejectsWrongLengthHalo(t *testing.T) {
	spec := Spec{Nlon: 8, Nlat: 8, Nlayers: 2}
	for _, c := range []struct {
		name   string
		py, px int
		tag    int
		floats int // the right length: h*(Nlon+2h)*Nlayers or h*Nlat*Nlayers
	}{
		{"north-south", 2, 1, tagSouth, 1 * (8 + 2) * 2},
		{"east-west", 1, 2, tagEast, 1 * 8 * 2},
	} {
		d, err := NewDecomp(spec, c.py, c.px)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sim.New(2, flatModel{}).Run(func(p *sim.Proc) error {
			world := comm.World(p)
			cart := comm.NewCart2D(world, c.py, c.px)
			if world.Rank() == 0 {
				NewExchanger(cart).Exchange(NewField(NewLocal(d, cart.MyRow, cart.MyCol), 1))
				return nil
			}
			// Rank 1 is rank 0's only neighbour; it sends the long message
			// and, east-west, a right one for rank 0's second receive.
			peer := cart.Col
			if c.px == 2 {
				peer = cart.Row
				peer.SendCopy(0, tagWest, make([]float64, c.floats))
			}
			peer.SendCopy(0, c.tag, make([]float64, c.floats+1))
			return nil
		})
		want := fmt.Sprintf("grid: halo message from rank 1 (tag %d) has %d floats, want %d", c.tag, c.floats+1, c.floats)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Run error %v, want a panic containing %q", c.name, err, want)
		}
	}
}
