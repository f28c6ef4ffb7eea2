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

	ref, err := Fit(base, nil)
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
			got, err := Fit(perm(base), nil)
			if err != nil {
				t.Fatal(err)
			}
			// Bit-identical, not merely close: == on every coefficient.
			if got != ref {
				t.Fatalf("insertion order changed coefficients:\n  ref %+v\n  got %+v", ref, got)
			}
		})
	}
}

func TestFitRecoversSyntheticEfficiencies(t *testing.T) {
	trueEff := machine.Efficiencies{Dynamics: 0.5, Physics: 0.04, FilterConv: 0.75, FilterFFT: 0.09, Network: 0.6}
	eff, err := Fit(synthSamples(trueEff, 20), nil)
	if err != nil {
		t.Fatal(err)
	}
	for c := Class(0); c < NumClasses; c++ {
		got, want := *c.eff(&eff), *c.eff(&trueEff)
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("class %s: fitted %g, want %g", c, got, want)
		}
	}
}

func TestFitZeroColumnKeepsBase(t *testing.T) {
	trueEff := machine.Efficiencies{Dynamics: 0.5, Physics: 0.04, FilterConv: 0.75, FilterFFT: 0.09, Network: 0.6}
	samples := synthSamples(trueEff, 15)
	for i := range samples {
		samples[i].Measured -= samples[i].Raw[ClassNetwork] / trueEff.Network
		samples[i].Raw[ClassNetwork] = 0 // no network work anywhere
	}
	eff, err := Fit(samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eff.Network != 1 {
		t.Fatalf("all-zero network column must keep unit efficiency, got %g", eff.Network)
	}
	if math.Abs(eff.Physics-trueEff.Physics) > 1e-9*trueEff.Physics {
		t.Fatalf("physics eff %g, want %g", eff.Physics, trueEff.Physics)
	}
}

func TestFitSubsetClassesSubtractsBase(t *testing.T) {
	// Every class but dynamics runs at unit efficiency, so the residual after
	// subtracting their raw time is exactly the dynamics term.
	trueEff := machine.Unit
	trueEff.Dynamics = 0.5
	samples := synthSamples(trueEff, 15)
	eff, err := Fit(samples, []Class{ClassDynamics})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eff.Dynamics-trueEff.Dynamics) > 1e-9 {
		t.Fatalf("dynamics eff %g, want %g", eff.Dynamics, trueEff.Dynamics)
	}
	if eff.Physics != 1 || eff.FilterConv != 1 || eff.FilterFFT != 1 || eff.Network != 1 {
		t.Fatalf("unfitted classes must keep unit efficiency, got %+v", eff)
	}
}

func TestFitSingularAndDegenerate(t *testing.T) {
	if _, err := Fit(nil, nil); err == nil {
		t.Fatal("Fit accepted an empty sample set")
	}
	// Two collinear columns: dynamics and physics rows proportional in every
	// sample make the normal equations singular.
	var collinear []Sample
	for i := 0; i < 6; i++ {
		var s Sample
		s.Label = fmt.Sprintf("c%d", i)
		s.Raw[ClassDynamics] = float64(i + 1)
		s.Raw[ClassPhysics] = 2 * float64(i+1)
		s.Measured = s.Raw[ClassDynamics] + s.Raw[ClassPhysics]
		collinear = append(collinear, s)
	}
	if _, err := Fit(collinear, []Class{ClassDynamics, ClassPhysics}); err == nil {
		t.Fatal("Fit accepted collinear samples")
	}
	// More fitted columns than samples.
	few := synthSamples(machine.Unit, 3)
	if _, err := Fit(few, nil); err == nil {
		t.Fatal("Fit accepted fewer samples than coefficients")
	}
}

func TestFitNonPositiveCoefficientFallsBack(t *testing.T) {
	// A negative correlation drives beta negative; the class must fall back
	// to unit efficiency instead of emitting a negative efficiency.
	samples := []Sample{
		{Label: "a", Raw: [NumClasses]float64{1, 0, 0, 0, 0}, Measured: -1},
		{Label: "b", Raw: [NumClasses]float64{2, 0, 0, 0, 0}, Measured: -2},
	}
	eff, err := Fit(samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eff != machine.Unit {
		t.Fatalf("negative beta must keep unit efficiency, got %+v", eff)
	}
}
