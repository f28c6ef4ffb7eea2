package workload

import (
	"reflect"
	"testing"

	"agcm/internal/core"
)

func TestGenerateDeterministic(t *testing.T) {
	spec := SchedulingSpec()
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec generated different schedules")
	}
	// Canonicalization-equivalent specs generate identical schedules too.
	cs, err := spec.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Generate(cs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatal("defaulted spec generated a different schedule")
	}
}

func TestGenerateSeedChangesSchedule(t *testing.T) {
	s1 := SchedulingSpec()
	s2 := SchedulingSpec()
	s2.Seed = s1.Seed + 1
	a, err := Generate(s1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(s2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Requests, b.Requests) {
		t.Fatal("different seeds generated identical schedules")
	}
}

func TestGenerateScheduleShape(t *testing.T) {
	spec := SchedulingSpec()
	cs, err := spec.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Requests) != cs.Requests {
		t.Fatalf("generated %d requests, want %d", len(sched.Requests), cs.Requests)
	}
	classes := make(map[string]Class)
	for _, c := range cs.Classes {
		classes[c.Name] = c
	}
	var prevAt int64
	counts := make(map[string]int)
	for i, r := range sched.Requests {
		if r.Seq != i {
			t.Fatalf("request %d has seq %d", i, r.Seq)
		}
		if r.AtUS < prevAt {
			t.Fatalf("request %d arrives before its predecessor", i)
		}
		prevAt = r.AtUS
		c, ok := classes[r.Class]
		if !ok {
			t.Fatalf("request %d has unknown class %q", i, r.Class)
		}
		counts[r.Class]++
		if r.PoolIndex < 0 || r.PoolIndex >= c.Pool.Distinct {
			t.Fatalf("request %d pool index %d outside [0,%d)", i, r.PoolIndex, c.Pool.Distinct)
		}
		if r.Steps != c.Steps || r.TimeoutMS != c.TimeoutMS {
			t.Fatalf("request %d metadata does not match its class: %+v", i, r)
		}
		if r.Body != body(c, r.PoolIndex) {
			t.Fatalf("request %d body not canonical", i)
		}
	}
	for name := range classes {
		if counts[name] == 0 {
			t.Fatalf("class %q never drawn", name)
		}
	}
	// The 70/30 weighting should be roughly visible over 400 draws.
	frac := float64(counts["interactive"]) / float64(cs.Requests)
	if frac < 0.6 || frac > 0.8 {
		t.Fatalf("interactive fraction %.2f far from its 0.7 weight", frac)
	}
}

func TestGenerateBodiesParseAsServerRequests(t *testing.T) {
	sched, err := Generate(SchedulingSpec())
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]string) // Request.Key() -> ConfigKey
	for _, r := range sched.Requests {
		cls := classByNameOrFatal(t, sched.Spec, r.Class)
		cfg, err := cls.Config(r.PoolIndex)
		if err != nil {
			t.Fatalf("request %d config: %v", r.Seq, err)
		}
		ck, err := cfg.ConfigKey()
		if err != nil {
			t.Fatalf("request %d key: %v", r.Seq, err)
		}
		if prev, ok := keys[r.Key()]; ok && prev != ck {
			t.Fatalf("pool key %s maps to two config keys", r.Key())
		}
		keys[r.Key()] = ck
	}
	// Distinct pool identities must be distinct simulations.
	seen := make(map[string]string)
	for pk, ck := range keys {
		if other, ok := seen[ck]; ok {
			t.Fatalf("pool keys %s and %s alias to one config key", pk, other)
		}
		seen[ck] = pk
	}
}

func classByNameOrFatal(t *testing.T, s Spec, name string) Class {
	t.Helper()
	for _, c := range s.Classes {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("class %q not in spec", name)
	return Class{}
}

func TestGenerateZipfSkew(t *testing.T) {
	spec := Spec{
		Requests: 2000,
		Classes: []Class{{
			Name: "interactive",
			Pool: Pool{Distinct: 32, Zipf: 1.3},
		}},
	}
	sched, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for _, r := range sched.Requests {
		counts[r.PoolIndex]++
	}
	if counts[0] <= counts[16] || counts[0] < len(sched.Requests)/4 {
		t.Fatalf("zipf draw not skewed toward index 0: %v", counts)
	}
}

func TestGenerateRejectsBadTemplate(t *testing.T) {
	spec := Spec{Classes: []Class{{
		Name:     "interactive",
		Template: Template{Machine: "cm5"},
	}}}
	if _, err := Generate(spec); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestGenerateArrivalProcesses(t *testing.T) {
	for _, proc := range []string{"poisson", "gamma", "weibull"} {
		for _, shape := range []float64{0.5, 1, 2} {
			spec := Spec{
				Requests: 500,
				Arrival:  Arrival{Process: proc, RatePerSec: 100, Shape: shape},
				Classes:  []Class{{Name: "interactive"}},
			}
			sched, err := Generate(spec)
			if err != nil {
				t.Fatalf("%s shape %g: %v", proc, shape, err)
			}
			// Mean interarrival must be near 1/rate: the samplers are
			// unit-mean by construction.
			span := float64(sched.Requests[len(sched.Requests)-1].AtUS) / 1e6
			mean := span / float64(len(sched.Requests))
			if mean < 0.005 || mean > 0.02 {
				t.Fatalf("%s shape %g: mean interarrival %.4fs far from 0.01s", proc, shape, mean)
			}
		}
	}
}

func TestClassConfigMatchesBody(t *testing.T) {
	cs, err := SchedulingSpec().WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs.Classes {
		cfg, err := c.Config(3)
		if err != nil {
			t.Fatal(err)
		}
		fromBody, err := core.ConfigFromCanonicalJSON([]byte(configJSON(c, 3)))
		if err != nil {
			t.Fatal(err)
		}
		k1, _ := cfg.ConfigKey()
		k2, _ := fromBody.ConfigKey()
		if k1 == "" || k1 != k2 {
			t.Fatalf("Class.Config and body config diverge: %q vs %q", k1, k2)
		}
	}
}
