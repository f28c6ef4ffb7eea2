package grid

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTwoByTwoPointFive(t *testing.T) {
	s := TwoByTwoPointFive(9)
	if s.Nlon != 144 || s.Nlat != 90 || s.Nlayers != 9 {
		t.Fatalf("spec = %+v", s)
	}
	if s.Points() != 144*90*9 {
		t.Fatalf("Points = %d", s.Points())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsOverflowingPoints: extents whose point count overflows
// int are refused, including 2^32 x 2^32 x 1, whose product wraps to 0, and
// the largest spec that fits is accepted.
func TestValidateRejectsOverflowingPoints(t *testing.T) {
	bad := []Spec{{1 << 32, 1 << 32, 1}, {1 << 31, 1 << 31, 4}, {4, 4, math.MaxInt/16 + 1}, {math.MaxInt, 4, 1}}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil with Points() = %d, want error", s, s.Points())
		}
	}
	if s := (Spec{4, 4, math.MaxInt / 16}); s.Validate() != nil || s.Points() <= 0 {
		t.Errorf("Validate(%+v) = %v, Points() = %d", s, s.Validate(), s.Points())
	}
}

func TestValidateRejectsDegenerate(t *testing.T) {
	bad := []Spec{{0, 90, 9}, {144, 0, 9}, {144, 90, 0}, {2, 2, 1}}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", s)
		}
	}
}

func TestLatLonGeometry(t *testing.T) {
	s := TwoByTwoPointFive(9)
	if got := s.DLat() * float64(s.Nlat); math.Abs(got-math.Pi) > 1e-12 {
		t.Errorf("latitudes span %g, want pi", got)
	}
	if got := s.DLon() * float64(s.Nlon); math.Abs(got-2*math.Pi) > 1e-12 {
		t.Errorf("longitudes span %g, want 2pi", got)
	}
	// Centres are strictly inside the poles and increase monotonically.
	prev := -math.Pi / 2
	for j := 0; j < s.Nlat; j++ {
		c := s.LatCenter(j)
		if c <= prev || c >= math.Pi/2 {
			t.Fatalf("LatCenter(%d) = %g not monotone in (-pi/2, pi/2)", j, c)
		}
		prev = c
	}
	// Symmetry about the equator.
	for j := 0; j < s.Nlat/2; j++ {
		if d := s.LatCenter(j) + s.LatCenter(s.Nlat-1-j); math.Abs(d) > 1e-12 {
			t.Fatalf("latitude centres not equator-symmetric at j=%d: %g", j, d)
		}
	}
	if s.CosLatEdge(0) != 0 || s.CosLatEdge(s.Nlat) != 0 {
		t.Errorf("pole edges must have cos(lat) = 0")
	}
}

func TestZonalSpacingShrinksTowardPoles(t *testing.T) {
	s := TwoByTwoPointFive(9)
	eq := s.ZonalSpacing(s.Nlat / 2)
	pole := s.ZonalSpacing(0)
	if pole >= eq {
		t.Fatalf("zonal spacing at pole %g not smaller than equator %g", pole, eq)
	}
	if ratio := eq / pole; ratio < 10 {
		t.Fatalf("pole/equator spacing ratio %g too small for a 2-degree grid", ratio)
	}
}

func TestCoriolisSign(t *testing.T) {
	s := TwoByTwoPointFive(9)
	if s.Coriolis(0) >= 0 {
		t.Errorf("southern-hemisphere Coriolis should be negative")
	}
	if s.Coriolis(s.Nlat-1) <= 0 {
		t.Errorf("northern-hemisphere Coriolis should be positive")
	}
}

func TestBlockRangePartitionProperty(t *testing.T) {
	// Property: for any (n, p) the block ranges exactly tile [0, n) in
	// order, and sizes differ by at most 1.
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw)%500 + 1
		p := int(pRaw)%32 + 1
		if p > n {
			p = n
		}
		next := 0
		minSize, maxSize := n+1, -1
		d := Decomp{Spec: Spec{Nlat: n}, Py: p}
		for b := 0; b < p; b++ {
			lo, hi := d.LatRange(b)
			if lo != next || hi < lo {
				return false
			}
			size := hi - lo
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
			next = hi
		}
		return next == n && maxSize-minSize <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecompRanges(t *testing.T) {
	d, err := NewDecomp(TwoByTwoPointFive(9), 8, 30)
	if err != nil {
		t.Fatal(err)
	}
	// 90 rows over 8 procs: sizes 12 or 11.
	total := 0
	for r := 0; r < 8; r++ {
		lo, hi := d.LatRange(r)
		if hi-lo != 11 && hi-lo != 12 {
			t.Errorf("row %d has %d rows", r, hi-lo)
		}
		total += hi - lo
	}
	if total != 90 {
		t.Errorf("latitude rows total %d", total)
	}
	// RowOfLat is the inverse of LatRange.
	for j := 0; j < 90; j++ {
		r := d.RowOfLat(j)
		lo, hi := d.LatRange(r)
		if j < lo || j >= hi {
			t.Fatalf("RowOfLat(%d) = %d has range [%d,%d)", j, r, lo, hi)
		}
	}
}

func TestNewDecompRejectsOversizedMesh(t *testing.T) {
	if _, err := NewDecomp(TwoByTwoPointFive(9), 91, 1); err == nil {
		t.Error("mesh taller than grid accepted")
	}
	if _, err := NewDecomp(TwoByTwoPointFive(9), 1, 145); err == nil {
		t.Error("mesh wider than grid accepted")
	}
	if _, err := NewDecomp(TwoByTwoPointFive(9), 0, 1); err == nil {
		t.Error("zero mesh accepted")
	}
}

func TestLocalView(t *testing.T) {
	d, _ := NewDecomp(TwoByTwoPointFive(9), 3, 4)
	l := NewLocal(d, 1, 2)
	if l.Nlat() <= 0 || l.Nlon() <= 0 {
		t.Fatalf("degenerate local %+v", l)
	}
	if l.GlobalLat(0) != l.Lat0 || l.GlobalLon(l.Nlon()-1) != l.Lon1-1 {
		t.Errorf("global index conversion wrong")
	}
	if l.Points() != l.Nlat()*l.Nlon()*9 {
		t.Errorf("Points = %d", l.Points())
	}
}

func TestFieldIndexingAndColumns(t *testing.T) {
	d, _ := NewDecomp(Spec{Nlon: 8, Nlat: 6, Nlayers: 3}, 1, 1)
	f := NewField(NewLocal(d, 0, 0), 1)
	f.Set(2, 3, 1, 42)
	if got := f.At(2, 3, 1); got != 42 {
		t.Fatalf("At = %g", got)
	}
	f.Add(2, 3, 1, 8)
	if got := f.At(2, 3, 1); got != 50 {
		t.Fatalf("after Add, At = %g", got)
	}
	col := f.Column(2, 3)
	if len(col) != 3 || col[1] != 50 {
		t.Fatalf("Column = %v", col)
	}
	col[0] = 7 // column is a mutable view
	if f.At(2, 3, 0) != 7 {
		t.Fatalf("Column is not a view")
	}
	// Distinct cells map to distinct storage.
	f.Fill(0)
	f.Set(0, 0, 0, 1)
	f.Set(-1, 0, 0, 2) // halo cell
	f.Set(0, -1, 0, 3)
	if f.At(0, 0, 0) != 1 || f.At(-1, 0, 0) != 2 || f.At(0, -1, 0) != 3 {
		t.Fatalf("halo cells alias interior")
	}
}

func TestFieldRowSlice(t *testing.T) {
	d, _ := NewDecomp(Spec{Nlon: 5, Nlat: 4, Nlayers: 2}, 1, 1)
	f := NewField(NewLocal(d, 0, 0), 0)
	want := []float64{1, 2, 3, 4, 5}
	f.SetRowSlice(2, 1, want)
	got := f.RowSlice(2, 1, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RowSlice = %v", got)
		}
	}
	// Other layers untouched.
	if f.At(2, 0, 0) != 0 {
		t.Fatalf("layer 0 polluted")
	}
	// Whatever dst's length, the row comes back at length Nlon: a short
	// dst with the capacity is filled in place, a long one loses its
	// stale tail, and one without the capacity is replaced.
	for _, dst := range [][]float64{make([]float64, 2, 5), {9, 9, 9, 9, 9, 9, 9}, make([]float64, 3)} {
		got := f.RowSlice(2, 1, dst)
		if len(got) != len(want) {
			t.Fatalf("RowSlice into len %d cap %d: got %v", len(dst), cap(dst), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("RowSlice into len %d cap %d = %v", len(dst), cap(dst), got)
			}
		}
		if cap(dst) >= len(want) && &got[0] != &dst[0] {
			t.Fatalf("RowSlice into len %d cap %d did not fill dst", len(dst), cap(dst))
		}
	}
	// A src of any other length than Nlon is refused, not written into
	// the east halo or half a row.
	g := NewField(NewLocal(d, 0, 0), 1)
	for _, src := range [][]float64{{1, 2, 3, 4, 5, 6}, {1, 2, 3, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetRowSlice of %d values did not panic", len(src))
				}
			}()
			g.SetRowSlice(2, 1, src)
		}()
		if g.MaxAbs() != 0 || g.At(2, 5, 1) != 0 {
			t.Fatalf("SetRowSlice of %d values wrote into the field", len(src))
		}
	}
}

func TestFieldCloneAndEqual(t *testing.T) {
	d, _ := NewDecomp(Spec{Nlon: 6, Nlat: 5, Nlayers: 2}, 1, 1)
	f := NewField(NewLocal(d, 0, 0), 1)
	f.Set(1, 1, 0, 3.25)
	g := f.Clone()
	if !f.InteriorEqual(g, 0) {
		t.Fatalf("clone differs")
	}
	g.Set(1, 1, 0, 3.5)
	if f.InteriorEqual(g, 0.1) {
		t.Fatalf("InteriorEqual ignored difference beyond tol")
	}
	if !f.InteriorEqual(g, 0.3) {
		t.Fatalf("InteriorEqual rejected difference within tol")
	}
	if f.At(1, 1, 0) != 3.25 {
		t.Fatalf("clone shares storage")
	}
}

func TestFieldMaxAbs(t *testing.T) {
	d, _ := NewDecomp(Spec{Nlon: 4, Nlat: 4, Nlayers: 1}, 1, 1)
	f := NewField(NewLocal(d, 0, 0), 1)
	f.Set(0, 0, 0, -9)
	f.Set(3, 3, 0, 4)
	f.Set(-1, -1, 0, -100) // halo must not count
	if got := f.MaxAbs(); got != 9 {
		t.Fatalf("MaxAbs = %g, want 9", got)
	}
}
