package filter

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"agcm/internal/fft"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/sim"
)

func TestKindString(t *testing.T) {
	if Strong.String() != "strong" || Weak.String() != "weak" {
		t.Fatalf("kind names wrong")
	}
}

func TestCritLat(t *testing.T) {
	if got := Strong.CritLat(); math.Abs(got-math.Pi/4) > 1e-12 {
		t.Errorf("strong crit lat = %g", got)
	}
	if got := Weak.CritLat(); math.Abs(got-math.Pi/3) > 1e-12 {
		t.Errorf("weak crit lat = %g", got)
	}
}

func TestDampingProperties(t *testing.T) {
	const n = 144
	crit := Strong.CritLat()
	for _, latDeg := range []float64{-89, -70, -50, 50, 70, 89} {
		lat := latDeg * math.Pi / 180
		row := DampingRow(n, lat, crit)
		if row[0] != 1 {
			t.Fatalf("lat %g: zonal mean damped: S(0)=%g", latDeg, row[0])
		}
		for s := 1; s < n; s++ {
			if row[s] < 0 || row[s] > 1 {
				t.Fatalf("lat %g s=%d: S=%g outside [0,1]", latDeg, s, row[s])
			}
			if math.Abs(row[s]-row[n-s]) > 1e-12 {
				t.Fatalf("lat %g: damping asymmetric at s=%d", latDeg, s)
			}
		}
		// The shortest resolvable wave (s = n/2) is damped hardest.
		if row[n/2] > row[1] {
			t.Fatalf("lat %g: S(n/2)=%g exceeds S(1)=%g", latDeg, row[n/2], row[1])
		}
	}
	// Closer to the pole means stronger damping at every wavenumber.
	d70 := DampingRow(n, 70*math.Pi/180, crit)
	d85 := DampingRow(n, 85*math.Pi/180, crit)
	for s := 1; s <= n/2; s++ {
		if d85[s] > d70[s]+1e-12 {
			t.Fatalf("s=%d: damping weaker at 85 deg (%g) than at 70 deg (%g)", s, d85[s], d70[s])
		}
	}
	// At the critical latitude nothing is damped (effective grid size ok).
	dCrit := DampingRow(n, crit, crit)
	for s := 0; s < n; s++ {
		if dCrit[s] < 1-1e-9 {
			t.Fatalf("damping %g at critical latitude, s=%d", dCrit[s], s)
		}
	}
}

func TestRowsCounts(t *testing.T) {
	spec := grid.TwoByTwoPointFive(9)
	strong := Rows(spec, Strong)
	weak := Rows(spec, Weak)
	// "strong ... applied to about one half of the latitudes (poles to
	// 45) ... weak ... about one third (poles to 60)".
	if len(strong) < 40 || len(strong) > 50 {
		t.Errorf("strong rows = %d, want about half of 90", len(strong))
	}
	if len(weak) < 26 || len(weak) > 34 {
		t.Errorf("weak rows = %d, want about a third of 90", len(weak))
	}
	// Weak rows are a subset of strong rows (further poleward).
	strongSet := map[int]bool{}
	for _, j := range strong {
		strongSet[j] = true
	}
	for _, j := range weak {
		if !strongSet[j] {
			t.Errorf("weak row %d not strongly filtered", j)
		}
	}
	// Equatorial rows are never filtered.
	if IsFiltered(spec, Strong, spec.Nlat/2) {
		t.Errorf("equator filtered")
	}
	// Symmetric about the equator.
	for _, j := range strong {
		if !IsFiltered(spec, Strong, spec.Nlat-1-j) {
			t.Errorf("row set not hemisphere-symmetric at %d", j)
		}
	}
}

func TestLineCount(t *testing.T) {
	spec := grid.TwoByTwoPointFive(9)
	want := (len(Rows(spec, Strong)) + len(Rows(spec, Weak))) * 9
	if got := LineCount(spec, []Kind{Strong, Weak}); got != want {
		t.Errorf("LineCount = %d, want %d", got, want)
	}
}

func TestConvolutionMatchesFFTRoute(t *testing.T) {
	// The mathematical heart of the paper's optimization: Eq. (2) (the
	// physical-space convolution) must equal Eq. (1) (the spectral form).
	const n = 144
	rng := rand.New(rand.NewSource(3))
	row := make([]float64, n)
	for i := range row {
		row[i] = rng.NormFloat64()
	}
	damp := DampingRow(n, 80*math.Pi/180, Strong.CritLat())
	viaFFT := append([]float64(nil), row...)
	ApplyRowFFT(fft.NewPlan(n), damp, viaFFT)
	coeffs := Coefficients(damp)
	viaConv := make([]float64, n)
	ApplyRowConvolution(coeffs, row, viaConv, 0)
	for i := 0; i < n; i++ {
		if math.Abs(viaFFT[i]-viaConv[i]) > 1e-9 {
			t.Fatalf("i=%d: FFT route %g vs convolution route %g", i, viaFFT[i], viaConv[i])
		}
	}
}

func TestConvolutionSegments(t *testing.T) {
	// Filtering a row in per-processor segments must equal filtering it
	// whole.
	const n = 90
	rng := rand.New(rand.NewSource(4))
	row := make([]float64, n)
	for i := range row {
		row[i] = rng.NormFloat64()
	}
	damp := DampingRow(n, -75*math.Pi/180, Weak.CritLat())
	coeffs := Coefficients(damp)
	whole := make([]float64, n)
	ApplyRowConvolution(coeffs, row, whole, 0)
	pieces := make([]float64, 0, n)
	for _, seg := range []struct{ off, len int }{{0, 30}, {30, 25}, {55, 35}} {
		dst := make([]float64, seg.len)
		ApplyRowConvolution(coeffs, row, dst, seg.off)
		pieces = append(pieces, dst...)
	}
	for i := range whole {
		if math.Abs(whole[i]-pieces[i]) > 1e-12 {
			t.Fatalf("segmented convolution differs at %d", i)
		}
	}
}

func TestFilterPreservesZonalMean(t *testing.T) {
	f := func(seed int64) bool {
		const n = 144
		rng := rand.New(rand.NewSource(seed))
		row := make([]float64, n)
		mean := 0.0
		for i := range row {
			row[i] = rng.NormFloat64()
			mean += row[i]
		}
		mean /= n
		damp := DampingRow(n, 85*math.Pi/180, Strong.CritLat())
		ApplyRowFFT(fft.NewPlan(n), damp, row)
		got := 0.0
		for _, v := range row {
			got += v
		}
		got /= n
		return math.Abs(got-mean) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFilterNeverAmplifies(t *testing.T) {
	// Property: |S| <= 1 implies the filtered row's spectral energy (and
	// hence L2 norm) never grows.
	f := func(seed int64, latRaw uint8) bool {
		const n = 144
		lat := (45 + float64(latRaw%45)) * math.Pi / 180
		rng := rand.New(rand.NewSource(seed))
		row := make([]float64, n)
		var e0 float64
		for i := range row {
			row[i] = rng.NormFloat64()
			e0 += row[i] * row[i]
		}
		ApplyRowFFT(fft.NewPlan(n), DampingRow(n, lat, Strong.CritLat()), row)
		var e1 float64
		for _, v := range row {
			e1 += v * v
		}
		return e1 <= e0*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFilterDampsShortWavesKeepsLongWaves(t *testing.T) {
	const n = 144
	lat := 85 * math.Pi / 180
	damp := DampingRow(n, lat, Strong.CritLat())
	plan := fft.NewPlan(n)
	amplitude := func(s int) float64 {
		row := make([]float64, n)
		for i := range row {
			row[i] = math.Cos(2 * math.Pi * float64(s*i) / n)
		}
		ApplyRowFFT(plan, damp, row)
		max := 0.0
		for _, v := range row {
			if math.Abs(v) > max {
				max = math.Abs(v)
			}
		}
		return max
	}
	long := amplitude(1)
	short := amplitude(n / 2)
	if short > 0.2*long {
		t.Fatalf("short-wave amplitude %g not strongly damped vs long-wave %g", short, long)
	}
	if long < 0.5 {
		t.Fatalf("long wave over-damped: amplitude %g", long)
	}
}

func TestCoefficientsAreRealAndNormalized(t *testing.T) {
	damp := DampingRow(144, 75*math.Pi/180, Strong.CritLat())
	coeffs := Coefficients(damp)
	// sum of coefficients == S(0) == 1 (DC gain).
	sum := 0.0
	for _, c := range coeffs {
		sum += c
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("coefficient sum %g, want 1", sum)
	}
}

func TestBuildLinesCanonicalOrder(t *testing.T) {
	spec := grid.Spec{Nlon: 16, Nlat: 12, Nlayers: 2}
	lines := buildLines(spec, []Kind{Strong, Weak})
	if len(lines) != LineCount(spec, []Kind{Strong, Weak}) {
		t.Fatalf("%d lines, want %d", len(lines), LineCount(spec, []Kind{Strong, Weak}))
	}
	for i := 1; i < len(lines); i++ {
		a, b := lines[i-1], lines[i]
		less := a.v < b.v || (a.v == b.v && (a.j < b.j || (a.j == b.j && a.k < b.k)))
		if !less {
			t.Fatalf("lines not in canonical order at %d: %+v then %+v", i, a, b)
		}
	}
}

func TestBlockOwners(t *testing.T) {
	owners := blockOwners(10, 4)
	want := []int{0, 0, 0, 1, 1, 1, 2, 2, 3, 3}
	for i := range want {
		if owners[i] != want[i] {
			t.Fatalf("blockOwners = %v", owners)
		}
	}
}

func TestApplyRowFFTPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	ApplyRowFFT(fft.NewPlan(8), make([]float64, 8), make([]float64, 7))
}

// TestResponsesShared checks the per-(grid, kind) response table every
// filter of a machine reads: filtered rows hold exactly DampingRow and its
// Coefficients, the others nil; a second lookup on the machine for any grid
// with the same horizontal size returns the same table, and so does the
// line table's build, which reads its damping rows from it; another machine
// builds its own.
func TestResponsesShared(t *testing.T) {
	spec := grid.Spec{Nlon: 24, Nlat: 16, Nlayers: 3}
	var first [2]*response
	for m := range 2 {
		_, err := sim.New(1, machine.Paragon()).Run(func(p *sim.Proc) error {
			r := responses(p, spec)
			if m == 1 {
				if r == first {
					return errors.New("a second machine read the first one's tables")
				}
				return nil
			}
			first = r
			for k, resp := range r {
				kind := Kind(k)
				for j := 0; j < spec.Nlat; j++ {
					if !IsFiltered(spec, kind, j) {
						if resp.damp[j] != nil || resp.kernel[j] != nil {
							return fmt.Errorf("%v row %d is not filtered but has a response", kind, j)
						}
						continue
					}
					damp := DampingRow(spec.Nlon, spec.LatCenter(j), kind.CritLat())
					kernel := Coefficients(damp)
					for s := range damp {
						if math.Float64bits(resp.damp[j][s]) != math.Float64bits(damp[s]) ||
							math.Float64bits(resp.kernel[j][s]) != math.Float64bits(kernel[s]) {
							return fmt.Errorf("%v row %d entry %d differs from DampingRow/Coefficients", kind, j, s)
						}
					}
				}
			}
			if again := responses(p, grid.Spec{Nlon: 24, Nlat: 16, Nlayers: 9}); again != r {
				return errors.New("a grid with the same horizontal size did not share the tables")
			}
			kinds := []Kind{Strong, Weak}
			tab := tableFor(p, grid.Decomp{Spec: spec, Py: 1, Px: 1}, kinds, true)
			for l, ln := range tab.lines {
				if &tab.damp[l][0] != &r[kinds[ln.v]].damp[ln.j][0] {
					return fmt.Errorf("line %d's damping row is not the machine's response", l)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
