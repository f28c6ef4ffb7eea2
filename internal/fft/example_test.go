package fft_test

import (
	"fmt"
	"math"

	"agcm/internal/fft"
)

// A pure cosine of wavenumber 3 transforms to a pair of spectral lines.
func ExamplePlan_Forward() {
	const n = 16
	re := make([]float64, n)
	im := make([]float64, n)
	for k := 0; k < n; k++ {
		re[k] = math.Cos(2 * math.Pi * 3 * float64(k) / n)
	}
	fft.NewPlan(n).Forward(re, im)
	for s := 0; s < n; s++ {
		if math.Abs(re[s]) > 1e-9 {
			fmt.Printf("bin %d: %.1f\n", s, re[s])
		}
	}
	// Output:
	// bin 3: 8.0
	// bin 13: 8.0
}

// Real input needs only the half spectrum.
func ExampleRealPlan_Forward() {
	const n = 8
	x := []float64{1, 0, -1, 0, 1, 0, -1, 0} // wavenumber 2 cosine
	re := make([]float64, n/2+1)
	im := make([]float64, n/2+1)
	fft.NewRealPlan(n).Forward(x, re, im)
	fmt.Printf("bin 2: %.1f, imaginary part zero: %v\n", re[2], math.Abs(im[2]) < 1e-12)
	// Output:
	// bin 2: 4.0, imaginary part zero: true
}
