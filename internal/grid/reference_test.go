package grid

import "agcm/internal/comm"

// The per-point halo exchange, gather and scatter bodies the span copies
// replaced: every float packed and unpacked through At and Set.  The
// differential test compares the Exchanger against them, bit for bit.

// refExchange is Exchanger.Exchange with per-point packs.
func refExchange(cart *comm.Cart2D, fields ...*Field) {
	for _, f := range fields {
		if f.halo == 0 {
			continue
		}
		refExchangeEastWest(cart, f)
		refExchangeNorthSouth(cart, f)
	}
}

func refExchangeEastWest(cart *comm.Cart2D, f *Field) {
	h, nlat, nlon, nl := f.halo, f.local.Nlat(), f.local.Nlon(), f.nl
	if cart.Px == 1 {
		for j := 0; j < nlat; j++ {
			for g := 0; g < h; g++ {
				for k := 0; k < nl; k++ {
					f.Set(j, -1-g, k, f.At(j, nlon-1-g, k))
					f.Set(j, nlon+g, k, f.At(j, g, k))
				}
			}
		}
		return
	}
	row := cart.Row
	east := (cart.MyCol + 1) % cart.Px
	west := (cart.MyCol - 1 + cart.Px) % cart.Px
	pack := func(i0 int) []float64 {
		buf := make([]float64, 0, h*nlat*nl)
		for g := 0; g < h; g++ {
			for j := 0; j < nlat; j++ {
				for k := 0; k < nl; k++ {
					buf = append(buf, f.At(j, i0+g, k))
				}
			}
		}
		return buf
	}
	unpack := func(i0 int, buf []float64) {
		p := 0
		for g := 0; g < h; g++ {
			for j := 0; j < nlat; j++ {
				for k := 0; k < nl; k++ {
					f.Set(j, i0+g, k, buf[p])
					p++
				}
			}
		}
	}
	row.SendCopy(east, tagEast, pack(nlon-h))
	row.SendCopy(west, tagWest, pack(0))
	unpack(-h, row.RecvInto(west, tagEast, nil))
	unpack(nlon, row.RecvInto(east, tagWest, nil))
}

func refExchangeNorthSouth(cart *comm.Cart2D, f *Field) {
	h, nlat, nlon, nl := f.halo, f.local.Nlat(), f.local.Nlon(), f.nl
	col := cart.Col
	north := cart.MyRow + 1
	south := cart.MyRow - 1
	pack := func(j0 int) []float64 {
		buf := make([]float64, 0, h*(nlon+2*h)*nl)
		for g := 0; g < h; g++ {
			for i := -h; i < nlon+h; i++ {
				for k := 0; k < nl; k++ {
					buf = append(buf, f.At(j0+g, i, k))
				}
			}
		}
		return buf
	}
	unpack := func(j0 int, buf []float64) {
		p := 0
		for g := 0; g < h; g++ {
			for i := -h; i < nlon+h; i++ {
				for k := 0; k < nl; k++ {
					f.Set(j0+g, i, k, buf[p])
					p++
				}
			}
		}
	}
	if north < cart.Py {
		col.SendCopy(north, tagNorth, pack(nlat-h))
	}
	if south >= 0 {
		col.SendCopy(south, tagSouth, pack(0))
	}
	if south >= 0 {
		unpack(-h, col.RecvInto(south, tagNorth, nil))
	}
	if north < cart.Py {
		unpack(nlat, col.RecvInto(north, tagSouth, nil))
	}
}

// refGather is Exchanger.Gather with per-point packs and placement.
func refGather(world *comm.Comm, f *Field) []float64 {
	d := f.local.Decomp
	pack := make([]float64, 0, f.local.Points())
	for j := 0; j < f.local.Nlat(); j++ {
		for i := 0; i < f.local.Nlon(); i++ {
			for k := 0; k < f.nl; k++ {
				pack = append(pack, f.At(j, i, k))
			}
		}
	}
	var out [][]float64
	if world.Rank() == 0 {
		out = make([][]float64, world.Size())
	}
	parts := world.GathervInto(0, pack, out)
	if parts == nil {
		return nil
	}
	spec := d.Spec
	global := make([]float64, spec.Points())
	for r, part := range parts {
		row, col := r/d.Px, r%d.Px
		lat0, lat1 := d.LatRange(row)
		lon0, lon1 := d.LonRange(col)
		q := 0
		for j := lat0; j < lat1; j++ {
			for i := lon0; i < lon1; i++ {
				for k := 0; k < spec.Nlayers; k++ {
					global[(j*spec.Nlon+i)*spec.Nlayers+k] = part[q]
					q++
				}
			}
		}
	}
	return global
}

// refScatter is Exchanger.Scatter with per-point parts and unpack.
func refScatter(world *comm.Comm, global []float64, f *Field) {
	d := f.local.Decomp
	spec := d.Spec
	var parts [][]float64
	if world.Rank() == 0 {
		parts = make([][]float64, world.Size())
		for r := range parts {
			row, col := r/d.Px, r%d.Px
			lat0, lat1 := d.LatRange(row)
			lon0, lon1 := d.LonRange(col)
			for j := lat0; j < lat1; j++ {
				for i := lon0; i < lon1; i++ {
					for k := 0; k < spec.Nlayers; k++ {
						parts[r] = append(parts[r], global[(j*spec.Nlon+i)*spec.Nlayers+k])
					}
				}
			}
		}
	}
	mine := world.ScattervInto(0, parts, nil)
	p := 0
	for j := 0; j < f.local.Nlat(); j++ {
		for i := 0; i < f.local.Nlon(); i++ {
			for k := 0; k < f.nl; k++ {
				f.Set(j, i, k, mine[p])
				p++
			}
		}
	}
}
