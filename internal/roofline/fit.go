package roofline

import (
	"fmt"
	"math"
	"sort"

	"agcm/internal/machine"
)

// Sample is one calibration observation: a configuration's raw per-class
// roofline seconds (RawSeconds, at unit efficiency) against the time the
// machine was actually observed — or simulated — to take.
type Sample struct {
	// Machine and Label identify the observation ("host", "144x90x9/4x4").
	Machine string `json:"machine"`
	Label   string `json:"label"`
	// Raw is the design-matrix row in canonical Classes order.
	Raw [NumClasses]float64 `json:"raw_seconds"`
	// Measured is the observed seconds.
	Measured float64 `json:"measured_seconds"`
}

// FitOptions controls which classes Fit estimates.
type FitOptions struct {
	// Base supplies the efficiency for classes not being fitted (because
	// they are excluded by Classes, have no work in any sample, or come
	// out non-positive).  The zero value means unit efficiency throughout.
	Base machine.Efficiencies
	// Classes, when non-nil, restricts the fit to the named classes; the
	// others keep Base and have their Base-efficiency time subtracted from
	// the observations first.  Nil fits every class with work.
	Classes []string
}

// FitResult is the fitted calibration's efficiency block plus which classes
// the data actually determined.
type FitResult struct {
	Eff machine.Efficiencies
	// FittedClasses lists the classes estimated from the data, canonical
	// order; the rest kept their Base value.
	FittedClasses []string
}

// Fit estimates per-class efficiencies from observations by least squares:
// it models Measured ~ sum_j Raw[j] * beta[j] with beta[j] = 1/eff[j], forms
// the normal equations, and solves them by Gaussian elimination with partial
// pivoting.
//
// The fit is deterministic for any insertion order of samples: the samples
// are first sorted into a canonical order (by machine, label, then the
// numeric fields), and every accumulation runs in that fixed order, so the
// same observation set produces bit-identical coefficients no matter how it
// was assembled.
//
// Efficiencies are physical quantities, so the fit is sign-constrained by an
// active-set loop: classes whose coefficient comes out non-positive or
// non-finite (collinear observations) are dropped back to Base and the
// remaining classes are refitted against the reduced residual.  Dropping
// without refitting would be wrong — a negative coefficient in the
// unconstrained solution is compensated by the others, and keeping their
// values while resetting its own breaks that balance.  Classes whose raw
// column is all zero keep Base as well.
func Fit(samples []Sample, opt FitOptions) (FitResult, error) {
	if len(samples) == 0 {
		return FitResult{}, fmt.Errorf("roofline: fit needs at least one sample")
	}
	base := opt.Base
	if base == (machine.Efficiencies{}) {
		base = machine.Unit
	}

	// Canonical sample order: the determinism anchor.
	ss := append([]Sample(nil), samples...)
	sort.Slice(ss, func(i, j int) bool { return sampleLess(ss[i], ss[j]) })

	// Which classes are candidates, in canonical order.
	want := make(map[string]bool, NumClasses)
	if opt.Classes == nil {
		for _, c := range Classes {
			want[c] = true
		}
	} else {
		for _, c := range opt.Classes {
			want[c] = true
		}
	}
	var cols []int // canonical-order indices of fitted columns
	for j, class := range Classes {
		if !want[class] {
			continue
		}
		nonzero := false
		for _, s := range ss {
			if s.Raw[j] != 0 {
				nonzero = true
				break
			}
		}
		if nonzero {
			cols = append(cols, j)
		}
	}
	if len(cols) == 0 {
		return FitResult{Eff: base}, nil
	}
	if len(ss) < len(cols) {
		return FitResult{}, fmt.Errorf("roofline: %d samples cannot determine %d classes",
			len(ss), len(cols))
	}

	// Active-set loop: solve the unconstrained least squares on the active
	// columns, drop every non-positive coefficient to Base, refit the rest.
	// At most NumClasses rounds; each removal is determined by the canonical
	// column order, so the loop is deterministic.
	for len(cols) > 0 {
		beta, err := fitOnce(ss, cols, base)
		if err != nil {
			return FitResult{}, fmt.Errorf("roofline: fit is singular (collinear samples): %w", err)
		}
		next := cols[:0:0]
		for r, j := range cols {
			if beta[r] > 0 && !math.IsInf(beta[r], 0) && !math.IsNaN(beta[r]) {
				next = append(next, j)
			}
		}
		if len(next) == len(cols) {
			res := FitResult{Eff: base}
			for r, j := range cols {
				res.Eff = withEfficiency(res.Eff, Classes[j], 1/beta[r])
				res.FittedClasses = append(res.FittedClasses, Classes[j])
			}
			return res, nil
		}
		cols = next
	}
	return FitResult{Eff: base}, nil
}

// fitOnce solves the unconstrained normal equations for the given active
// columns, with every inactive class charged at Base and subtracted from the
// observations.
func fitOnce(ss []Sample, cols []int, base machine.Efficiencies) ([]float64, error) {
	// Residual observations: subtract the unfitted classes' Base time.
	y := make([]float64, len(ss))
	for i, s := range ss {
		y[i] = s.Measured
		for j, class := range Classes {
			if !containsInt(cols, j) && s.Raw[j] != 0 {
				y[i] -= s.Raw[j] / efficiency(base, class)
			}
		}
	}

	// Normal equations A beta = b over the sorted samples, fixed order.
	p := len(cols)
	a := make([][]float64, p)
	b := make([]float64, p)
	for r := 0; r < p; r++ {
		a[r] = make([]float64, p)
	}
	for i, s := range ss {
		for r := 0; r < p; r++ {
			xr := s.Raw[cols[r]]
			if xr == 0 {
				continue
			}
			b[r] += xr * y[i]
			for c := 0; c < p; c++ {
				a[r][c] += xr * s.Raw[cols[c]]
			}
		}
	}
	return solve(a, b)
}

// PredictSample returns the fitted model's seconds for one sample row.
func PredictSample(eff machine.Efficiencies, raw [NumClasses]float64) float64 {
	var t float64
	for j, class := range Classes {
		if raw[j] != 0 {
			t += raw[j] / efficiency(eff, class)
		}
	}
	return t
}

// sampleLess is the canonical total order on samples: every field takes part
// so that any permutation of the same multiset sorts identically.
func sampleLess(a, b Sample) bool {
	if a.Machine != b.Machine {
		return a.Machine < b.Machine
	}
	if a.Label != b.Label {
		return a.Label < b.Label
	}
	if a.Measured != b.Measured {
		return a.Measured < b.Measured
	}
	for j := 0; j < NumClasses; j++ {
		if a.Raw[j] != b.Raw[j] {
			return a.Raw[j] < b.Raw[j]
		}
	}
	return false
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// solve performs Gaussian elimination with partial pivoting on a copy of the
// dense system.  Pivot choice is deterministic: the largest absolute value,
// earliest row on ties.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	m := make([][]float64, n)
	for i := range a {
		m[i] = append([]float64(nil), a[i]...)
	}
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		piv, best := -1, 0.0
		for r := col; r < n; r++ {
			if v := math.Abs(m[r][col]); v > best {
				best, piv = v, r
			}
		}
		if piv < 0 || best == 0 {
			return nil, fmt.Errorf("zero pivot at column %d", col)
		}
		m[col], m[piv] = m[piv], m[col]
		x[col], x[piv] = x[piv], x[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	for col := n - 1; col >= 0; col-- {
		s := x[col]
		for c := col + 1; c < n; c++ {
			s -= m[col][c] * x[c]
		}
		x[col] = s / m[col][col]
	}
	return x, nil
}
