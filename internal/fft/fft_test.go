package fft

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func maxAbsDiff(a, b []float64) float64 {
	max := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}

func randSignal(n int, seed int64) (re, im []float64) {
	rng := rand.New(rand.NewSource(seed))
	re = make([]float64, n)
	im = make([]float64, n)
	for i := range re {
		re[i] = rng.NormFloat64()
		im[i] = rng.NormFloat64()
	}
	return re, im
}

// testLengths covers powers of two, the AGCM's 144 longitudes, primes and
// other awkward composites that exercise the Bluestein path.
var testLengths = []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 45, 64, 90, 97, 128, 144, 180, 288}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	for _, n := range testLengths {
		re, im := randSignal(n, int64(n))
		wantRe, wantIm := DFT(re, im)
		p := NewPlan(n)
		p.Forward(re, im)
		tol := 1e-9 * float64(n)
		if d := maxAbsDiff(re, wantRe); d > tol {
			t.Errorf("n=%d: real part differs from DFT by %g", n, d)
		}
		if d := maxAbsDiff(im, wantIm); d > tol {
			t.Errorf("n=%d: imag part differs from DFT by %g", n, d)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	for _, n := range testLengths {
		re, im := randSignal(n, int64(2*n+1))
		origRe := append([]float64(nil), re...)
		origIm := append([]float64(nil), im...)
		p := NewPlan(n)
		p.Forward(re, im)
		p.Inverse(re, im)
		tol := 1e-10 * float64(n+1)
		if d := maxAbsDiff(re, origRe); d > tol {
			t.Errorf("n=%d: round-trip real error %g", n, d)
		}
		if d := maxAbsDiff(im, origIm); d > tol {
			t.Errorf("n=%d: round-trip imag error %g", n, d)
		}
	}
}

func TestPlanReuseIsStateless(t *testing.T) {
	// Two transforms with the same plan must not interfere.
	p := NewPlan(144)
	re1, im1 := randSignal(144, 5)
	re2, im2 := randSignal(144, 6)
	want1Re, want1Im := DFT(re1, im1)
	p.Forward(re2, im2) // pollute scratch
	p.Forward(re1, im1)
	if d := maxAbsDiff(re1, want1Re); d > 1e-7 {
		t.Errorf("plan reuse corrupted real part: %g", d)
	}
	if d := maxAbsDiff(im1, want1Im); d > 1e-7 {
		t.Errorf("plan reuse corrupted imag part: %g", d)
	}
}

func TestLinearity(t *testing.T) {
	// Property: FFT(a*x + y) == a*FFT(x) + FFT(y).
	const n = 90
	f := func(seed int64, aRaw uint8) bool {
		a := float64(aRaw)/16 - 4
		xRe, xIm := randSignal(n, seed)
		yRe, yIm := randSignal(n, seed+1000)
		zRe := make([]float64, n)
		zIm := make([]float64, n)
		for i := 0; i < n; i++ {
			zRe[i] = a*xRe[i] + yRe[i]
			zIm[i] = a*xIm[i] + yIm[i]
		}
		p := NewPlan(n)
		p.Forward(xRe, xIm)
		p.Forward(yRe, yIm)
		p.Forward(zRe, zIm)
		for i := 0; i < n; i++ {
			if math.Abs(zRe[i]-(a*xRe[i]+yRe[i])) > 1e-8 {
				return false
			}
			if math.Abs(zIm[i]-(a*xIm[i]+yIm[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestParsevalEnergyConservation(t *testing.T) {
	// Property: sum |x|^2 == (1/n) sum |X|^2.
	f := func(seed int64) bool {
		n := 144
		re, im := randSignal(n, seed)
		var timeE float64
		for i := range re {
			timeE += re[i]*re[i] + im[i]*im[i]
		}
		NewPlan(n).Forward(re, im)
		var freqE float64
		for i := range re {
			freqE += re[i]*re[i] + im[i]*im[i]
		}
		return math.Abs(timeE-freqE/float64(n)) < 1e-8*timeE+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRealInputHasConjugateSymmetry(t *testing.T) {
	n := 144
	re, _ := randSignal(n, 99)
	im := make([]float64, n)
	NewPlan(n).Forward(re, im)
	for s := 1; s < n; s++ {
		if math.Abs(re[s]-re[n-s]) > 1e-9 || math.Abs(im[s]+im[n-s]) > 1e-9 {
			t.Fatalf("wavenumber %d breaks conjugate symmetry", s)
		}
	}
}

func TestImpulseTransformsToConstant(t *testing.T) {
	for _, n := range []int{8, 144} {
		re := make([]float64, n)
		im := make([]float64, n)
		re[0] = 1
		NewPlan(n).Forward(re, im)
		for s := 0; s < n; s++ {
			if math.Abs(re[s]-1) > 1e-12 || math.Abs(im[s]) > 1e-12 {
				t.Fatalf("n=%d: impulse spectrum not flat at s=%d: %g+%gi", n, s, re[s], im[s])
			}
		}
	}
}

func TestConstantTransformsToImpulse(t *testing.T) {
	n := 90
	re := make([]float64, n)
	im := make([]float64, n)
	for i := range re {
		re[i] = 2.5
	}
	NewPlan(n).Forward(re, im)
	if math.Abs(re[0]-2.5*float64(n)) > 1e-9 {
		t.Fatalf("DC component %g, want %g", re[0], 2.5*float64(n))
	}
	for s := 1; s < n; s++ {
		if math.Abs(re[s]) > 1e-9 || math.Abs(im[s]) > 1e-9 {
			t.Fatalf("non-DC leakage at s=%d", s)
		}
	}
}

func TestNewPlanPanicsOnZeroLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPlan(0) did not panic")
		}
	}()
	NewPlan(0)
}

func TestForwardPanicsOnWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Forward with wrong buffer length did not panic")
		}
	}()
	NewPlan(8).Forward(make([]float64, 7), make([]float64, 8))
}

func TestFlopsModel(t *testing.T) {
	if Flops(1) != 0 {
		t.Errorf("Flops(1) = %g, want 0", Flops(1))
	}
	if got, want := Flops(1024), 5.0*1024*10; got != want {
		t.Errorf("Flops(1024) = %g, want %g", got, want)
	}
	// Smooth composites take the mixed-radix path: standard cost model.
	if got, want := Flops(144), 5*144*math.Log2(144); math.Abs(got-want) > 1e-9 {
		t.Errorf("Flops(144) = %g, want %g (mixed-radix model)", got, want)
	}
	// A large prime must pay the Bluestein overhead: dearer than the next
	// power of two, but within a small constant factor.
	f97, f128 := Flops(97), Flops(128)
	if f97 <= f128 {
		t.Errorf("Flops(97)=%g should exceed Flops(128)=%g (Bluestein overhead)", f97, f128)
	}
	if f97 > 40*f128 {
		t.Errorf("Flops(97)=%g implausibly large", f97)
	}
	// The FFT model must beat direct convolution (n^2) at the AGCM's
	// n=144 — the premise of the paper's filter replacement.
	if Flops(144) >= 144*144 {
		t.Errorf("Flops(144)=%g not below convolution cost %d", Flops(144), 144*144)
	}
}

func TestFactorize(t *testing.T) {
	cases := map[int][]int{
		144: {2, 2, 2, 2, 3, 3},
		90:  {2, 3, 3, 5},
		97:  {97},
		1:   nil,
	}
	for n, want := range cases {
		got := factorize(n)
		if len(got) != len(want) {
			t.Errorf("factorize(%d) = %v, want %v", n, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("factorize(%d) = %v, want %v", n, got, want)
			}
		}
	}
}

// TestSmoothMatchesFactorization holds the in-place smooth against its
// definition: the largest prime factor is at most maxMixedRadixFactor.
func TestSmoothMatchesFactorization(t *testing.T) {
	for n := 2; n <= 5000; n++ {
		fs := factorize(n)
		if want := fs[len(fs)-1] <= maxMixedRadixFactor; smooth(n) != want {
			t.Fatalf("smooth(%d) = %v, factors %v", n, !want, fs)
		}
	}
}

func TestPlanKindSelection(t *testing.T) {
	if NewPlan(128).kind() != kindMixed {
		t.Error("128 should use mixed-radix")
	}
	if NewPlan(144).kind() != kindMixed {
		t.Error("144 should use mixed-radix")
	}
	if NewPlan(97).kind() != kindBluestein {
		t.Error("97 should use Bluestein")
	}
}

func TestNEquals(t *testing.T) {
	if NewPlan(144).N() != 144 {
		t.Error("N() mismatch")
	}
}

// BenchmarkFFT144 and BenchmarkFFT128 transform a fresh copy of one signal
// every iteration: a transform of its own output grows without bound and
// would time Inf and NaN arithmetic within a few hundred iterations.
func BenchmarkFFT144(b *testing.B) { benchmarkForward(b, 144) }

func BenchmarkFFT128(b *testing.B) { benchmarkForward(b, 128) }

func benchmarkForward(b *testing.B, n int) {
	p := NewPlan(n)
	srcRe, srcIm := randSignal(n, 1)
	re, im := make([]float64, n), make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(re, srcRe)
		copy(im, srcIm)
		p.Forward(re, im)
	}
}

func BenchmarkNaiveDFT144(b *testing.B) {
	re, im := randSignal(144, 1)
	for i := 0; i < b.N; i++ {
		DFT(re, im)
	}
}
