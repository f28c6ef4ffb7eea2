package roofline

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"agcm/internal/machine"
	"agcm/internal/solver"
)

// Sample is one calibration observation: a configuration's raw per-class
// roofline seconds (RawSeconds, at unit efficiency) against the time the
// machine was actually observed — or simulated — to take.
type Sample struct {
	// Machine and Label identify the observation ("host", "144x90x9/4x4").
	Machine, Label string
	// Raw is the design-matrix row, indexed by Class.
	Raw [NumClasses]float64
	// Measured is the observed seconds.
	Measured float64
}

// Fit estimates the efficiencies of the given classes (nil: every class)
// from observations by least squares: it models Measured ~ sum_j Raw[j] *
// beta[j] with beta[j] = 1/eff[j], forms the normal equations, and solves
// them with solver.DenseSolve.  Every class it does not fit keeps unit
// efficiency, and its raw time is subtracted from the observations first.
//
// The fit is deterministic for any insertion order of samples: the samples
// are first sorted into a canonical order (by machine, label, then the
// numeric fields), and every accumulation runs in that fixed order, so the
// same observation set produces bit-identical coefficients no matter how it
// was assembled.
//
// Efficiencies are physical quantities, so the fit is sign-constrained by an
// active-set loop: classes whose coefficient comes out non-positive or
// non-finite (collinear observations) are dropped back to unit efficiency
// and the remaining classes are refitted against the reduced residual.
// Dropping without refitting would be wrong — a negative coefficient in the
// unconstrained solution is compensated by the others, and keeping their
// values while resetting its own breaks that balance.  Classes whose raw
// column is all zero keep unit efficiency as well.
func Fit(samples []Sample, classes []Class) (machine.Efficiencies, error) {
	if len(samples) == 0 {
		return machine.Efficiencies{}, fmt.Errorf("roofline: fit needs at least one sample")
	}

	// Canonical sample order: the determinism anchor.
	ss := append([]Sample(nil), samples...)
	sort.Slice(ss, func(i, j int) bool { return sampleLess(ss[i], ss[j]) })

	// The candidate classes with work in some sample, in canonical order.
	var cols []Class
	for c := Class(0); c < NumClasses; c++ {
		if classes != nil && !slices.Contains(classes, c) {
			continue
		}
		for _, s := range ss {
			if s.Raw[c] != 0 {
				cols = append(cols, c)
				break
			}
		}
	}
	eff := machine.Unit
	if len(cols) == 0 {
		return eff, nil
	}
	if len(ss) < len(cols) {
		return machine.Efficiencies{}, fmt.Errorf("roofline: %d samples cannot determine %d classes",
			len(ss), len(cols))
	}

	// Active-set loop: solve the unconstrained least squares on the active
	// columns, drop every non-positive coefficient to unit efficiency, refit
	// the rest.  At most NumClasses rounds; each removal is determined by
	// the canonical column order, so the loop is deterministic.
	for len(cols) > 0 {
		beta, err := fitOnce(ss, cols)
		if err != nil {
			return machine.Efficiencies{}, fmt.Errorf("roofline: fit is singular (collinear samples): %w", err)
		}
		next := cols[:0:0]
		for r, c := range cols {
			if beta[r] > 0 && !math.IsInf(beta[r], 1) {
				next = append(next, c)
			}
		}
		if len(next) == len(cols) {
			for r, c := range cols {
				*c.eff(&eff) = 1 / beta[r]
			}
			return eff, nil
		}
		cols = next
	}
	return eff, nil
}

// fitOnce solves the unconstrained normal equations for the given active
// columns, with every inactive class charged at unit efficiency and
// subtracted from the observations.
func fitOnce(ss []Sample, cols []Class) ([]float64, error) {
	y := make([]float64, len(ss))
	for i, s := range ss {
		y[i] = s.Measured
		for c, x := range s.Raw {
			if x != 0 && !slices.Contains(cols, Class(c)) {
				y[i] -= x
			}
		}
	}

	// Normal equations A beta = b over the sorted samples, fixed order.
	p := len(cols)
	a := make([]float64, p*p)
	b := make([]float64, p)
	for i, s := range ss {
		for r, cr := range cols {
			xr := s.Raw[cr]
			if xr == 0 {
				continue
			}
			b[r] += xr * y[i]
			for c, cc := range cols {
				a[r*p+c] += xr * s.Raw[cc]
			}
		}
	}
	if err := solver.DenseSolve(a, b); err != nil {
		return nil, err
	}
	return b, nil
}

// PredictSample returns the fitted model's seconds for one sample row.
func PredictSample(eff machine.Efficiencies, raw [NumClasses]float64) float64 {
	var t float64
	for c, x := range raw {
		if x != 0 {
			t += x / *Class(c).eff(&eff)
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
	for j := range a.Raw {
		if a.Raw[j] != b.Raw[j] {
			return a.Raw[j] < b.Raw[j]
		}
	}
	return false
}
