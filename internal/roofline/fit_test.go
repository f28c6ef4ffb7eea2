package roofline

import (
	"fmt"
	"math"
	"testing"

	"agcm/internal/machine"
)

// synthSamples builds an overdetermined sample set whose measurements are
// generated exactly by trueEff, with machine/label variety so the canonical
// sort has real work to do.  The raw rows come from a tiny deterministic
// LCG — no global randomness, per the package's own determinism contract.
func synthSamples(trueEff machine.Efficiencies, n int) []Sample {
	state := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return 0.25 + float64(state>>40)/float64(1<<24) // in [0.25, 1.25)
	}
	out := make([]Sample, n)
	for i := range out {
		var s Sample
		s.Machine = fmt.Sprintf("m%d", i%3)
		s.Label = fmt.Sprintf("cfg%02d", i)
		for j := range s.Raw {
			s.Raw[j] = next() * float64(j+1)
		}
		s.Measured = PredictSample(trueEff, s.Raw)
		out[i] = s
	}
	return out
}

// TestFitInsertionOrderBitIdentical is the determinism contract of the
// calibration loop: the same observation multiset must produce bit-identical
// coefficients no matter how it was assembled.  Run under -race in CI.
func TestFitInsertionOrderBitIdentical(t *testing.T) {
	trueEff := machine.Efficiencies{Dynamics: 0.47, Physics: 0.031, FilterConv: 0.8, FilterFFT: 0.12, Network: 0.66}
	base := synthSamples(trueEff, 12)

	ref, err := Fit(base, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	perms := map[string]func([]Sample) []Sample{
		"reversed": func(ss []Sample) []Sample {
			out := make([]Sample, len(ss))
			for i, s := range ss {
				out[len(ss)-1-i] = s
			}
			return out
		},
		"rotated": func(ss []Sample) []Sample {
			return append(append([]Sample(nil), ss[5:]...), ss[:5]...)
		},
		"interleaved": func(ss []Sample) []Sample {
			var out []Sample
			for i := 0; i < len(ss); i += 2 {
				out = append(out, ss[i])
			}
			for i := 1; i < len(ss); i += 2 {
				out = append(out, ss[i])
			}
			return out
		},
	}
	for name, perm := range perms {
		t.Run(name, func(t *testing.T) {
			got, err := Fit(perm(base), FitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// Bit-identical, not merely close: == on every coefficient.
			if got.Eff != ref.Eff {
				t.Fatalf("insertion order changed coefficients:\n  ref %+v\n  got %+v", ref.Eff, got.Eff)
			}
		})
	}
}

func TestFitRecoversSyntheticEfficiencies(t *testing.T) {
	trueEff := machine.Efficiencies{Dynamics: 0.5, Physics: 0.04, FilterConv: 0.75, FilterFFT: 0.09, Network: 0.6}
	res, err := Fit(synthSamples(trueEff, 20), FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FittedClasses) != NumClasses {
		t.Fatalf("expected all %d classes fitted, got %v", NumClasses, res.FittedClasses)
	}
	for _, class := range Classes {
		got, want := efficiency(res.Eff, class), efficiency(trueEff, class)
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("class %s: fitted %g, want %g", class, got, want)
		}
	}
}

func TestFitZeroColumnKeepsBase(t *testing.T) {
	trueEff := machine.Efficiencies{Dynamics: 0.5, Physics: 0.04, FilterConv: 0.75, FilterFFT: 0.09, Network: 0.6}
	samples := synthSamples(trueEff, 15)
	for i := range samples {
		samples[i].Measured -= samples[i].Raw[NumClasses-1] / trueEff.Network
		samples[i].Raw[NumClasses-1] = 0 // no network work anywhere
	}
	base := machine.Efficiencies{Dynamics: 1, Physics: 1, FilterConv: 1, FilterFFT: 1, Network: 0.123}
	res, err := Fit(samples, FitOptions{Base: base})
	if err != nil {
		t.Fatal(err)
	}
	if res.Eff.Network != base.Network {
		t.Fatalf("all-zero network column must keep Base, got %g", res.Eff.Network)
	}
	for _, class := range res.FittedClasses {
		if class == ClassNetwork {
			t.Fatal("network reported as fitted despite an all-zero column")
		}
	}
}

func TestFitSubsetClassesSubtractsBase(t *testing.T) {
	trueEff := machine.Efficiencies{Dynamics: 0.5, Physics: 0.04, FilterConv: 0.75, FilterFFT: 0.09, Network: 0.6}
	samples := synthSamples(trueEff, 15)
	// Fit only dynamics; supply the true efficiencies of everything else as
	// Base so the residual is exactly the dynamics term.
	res, err := Fit(samples, FitOptions{Base: trueEff, Classes: []string{ClassDynamics}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FittedClasses) != 1 || res.FittedClasses[0] != ClassDynamics {
		t.Fatalf("expected only dynamics fitted, got %v", res.FittedClasses)
	}
	if math.Abs(res.Eff.Dynamics-trueEff.Dynamics) > 1e-9 {
		t.Fatalf("dynamics eff %g, want %g", res.Eff.Dynamics, trueEff.Dynamics)
	}
	if res.Eff.Physics != trueEff.Physics || res.Eff.Network != trueEff.Network {
		t.Fatal("unfitted classes must keep Base")
	}
}

func TestFitSingularAndDegenerate(t *testing.T) {
	if _, err := Fit(nil, FitOptions{}); err == nil {
		t.Fatal("Fit accepted an empty sample set")
	}
	// Two collinear columns: dynamics and physics rows proportional in every
	// sample make the normal equations singular.
	var collinear []Sample
	for i := 0; i < 6; i++ {
		var s Sample
		s.Label = fmt.Sprintf("c%d", i)
		s.Raw[0] = float64(i + 1)
		s.Raw[1] = 2 * float64(i+1)
		s.Measured = s.Raw[0] + s.Raw[1]
		collinear = append(collinear, s)
	}
	if _, err := Fit(collinear, FitOptions{Classes: []string{ClassDynamics, ClassPhysics}}); err == nil {
		t.Fatal("Fit accepted collinear samples")
	}
	// More fitted columns than samples.
	few := synthSamples(machine.Efficiencies{Dynamics: 1, Physics: 1, FilterConv: 1, FilterFFT: 1, Network: 1}, 3)
	if _, err := Fit(few, FitOptions{}); err == nil {
		t.Fatal("Fit accepted fewer samples than coefficients")
	}
}

func TestFitNonPositiveCoefficientFallsBack(t *testing.T) {
	// A negative correlation drives beta negative; the class must fall back
	// to Base instead of emitting a negative efficiency.
	samples := []Sample{
		{Label: "a", Raw: [NumClasses]float64{1, 0, 0, 0, 0}, Measured: -1},
		{Label: "b", Raw: [NumClasses]float64{2, 0, 0, 0, 0}, Measured: -2},
	}
	base := machine.Efficiencies{Dynamics: 0.33, Physics: 1, FilterConv: 1, FilterFFT: 1, Network: 1}
	res, err := Fit(samples, FitOptions{Base: base})
	if err != nil {
		t.Fatal(err)
	}
	if res.Eff.Dynamics != base.Dynamics {
		t.Fatalf("negative beta must keep Base, got %g", res.Eff.Dynamics)
	}
	if len(res.FittedClasses) != 0 {
		t.Fatalf("no class should count as fitted, got %v", res.FittedClasses)
	}
}
