package grid

import (
	"fmt"
	"testing"
)

// TestRowCopiesMatchPointLoops checks RowSlice and SetRowSlice against At
// and Set loops on every (row, layer) of fields with halo 0, 1 and 2 and one
// or nine layers: the copies read exactly the row's points, a nil dst gets
// one allocation of exactly Nlon, and a write touches no halo cell and no
// other row or layer.
func TestRowCopiesMatchPointLoops(t *testing.T) {
	d, err := NewDecomp(Spec{Nlon: 11, Nlat: 7, Nlayers: 9}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, layers := range []int{1, 9} {
		d := d
		d.Spec.Nlayers = layers
		for _, halo := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("layers=%d/halo=%d", layers, halo), func(t *testing.T) {
				checkRowCopies(t, NewField(NewLocal(d, 1, 1), halo))
			})
		}
	}
}

func checkRowCopies(t *testing.T, f *Field) {
	l := f.Local()
	nlat, nlon, nl, h := l.Nlat(), l.Nlon(), l.Nlayers(), f.halo
	// label gives every cell, halo included, its own value.
	label := func(j, i, k int) float64 { return float64(((j+h)*(nlon+2*h)+(i+h))*nl+k) + 0.5 }
	reset := func() {
		for j := -h; j < nlat+h; j++ {
			for i := -h; i < nlon+h; i++ {
				for k := 0; k < nl; k++ {
					f.Set(j, i, k, label(j, i, k))
				}
			}
		}
	}
	reset()
	dst := make([]float64, nlon)
	src := make([]float64, nlon)
	for j := 0; j < nlat; j++ {
		for k := 0; k < nl; k++ {
			got := f.RowSlice(j, k, nil)
			if len(got) != nlon || cap(got) != nlon {
				t.Fatalf("(%d,%d): RowSlice(nil) has len %d cap %d, want %d", j, k, len(got), cap(got), nlon)
			}
			if into := f.RowSlice(j, k, dst); &into[0] != &dst[0] {
				t.Fatalf("(%d,%d): RowSlice did not return dst", j, k)
			}
			for i := 0; i < nlon; i++ {
				if want := f.At(j, i, k); got[i] != want || dst[i] != want {
					t.Fatalf("(%d,%d): RowSlice[%d] = %g / %g, At gives %g", j, k, i, got[i], dst[i], want)
				}
			}

			for i := range src {
				src[i] = -float64(i + 1)
			}
			f.SetRowSlice(j, k, src)
			for jj := -h; jj < nlat+h; jj++ {
				for i := -h; i < nlon+h; i++ {
					for kk := 0; kk < nl; kk++ {
						want := label(jj, i, kk)
						if jj == j && kk == k && i >= 0 && i < nlon {
							want = src[i]
						}
						if got := f.At(jj, i, kk); got != want {
							t.Fatalf("SetRowSlice(%d,%d): cell (%d,%d,%d) = %g, want %g", j, k, jj, i, kk, got, want)
						}
					}
				}
			}
			reset()
		}
	}
	if a := testing.AllocsPerRun(10, func() { f.RowSlice(nlat-1, nl-1, nil) }); a != 1 {
		t.Errorf("RowSlice(nil) allocated %.1f times; want 1", a)
	}
	if a := testing.AllocsPerRun(10, func() { f.RowSlice(0, 0, dst); f.SetRowSlice(0, 0, src) }); a != 0 {
		t.Errorf("RowSlice into dst and SetRowSlice allocated %.1f times; want 0", a)
	}
}
