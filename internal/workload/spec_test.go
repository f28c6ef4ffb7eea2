package workload

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSpecDefaultsAndCanonicalJSON(t *testing.T) {
	min := Spec{Classes: []Class{{Name: "interactive"}}}
	cs, err := min.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Seed != 1 || cs.Requests != 100 {
		t.Fatalf("top-level defaults not applied: %+v", cs)
	}
	if cs.Arrival.Process != "poisson" || cs.Arrival.RatePerSec != 20 || cs.Arrival.Shape != 1 ||
		cs.Arrival.DiurnalPeriodSec != 10 {
		t.Fatalf("arrival defaults not applied: %+v", cs.Arrival)
	}
	c := cs.Classes[0]
	if c.Weight != 1 || c.Steps != 1 || c.Pool.Distinct != 16 {
		t.Fatalf("class defaults not applied: %+v", c)
	}
	if c.Template.Nlon != 36 || c.Template.Machine != "paragon" || c.Template.Filter != "fft" {
		t.Fatalf("template defaults not applied: %+v", c.Template)
	}

	// Canonicalization is idempotent and erases default-only differences.
	raw1, err := min.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := cs.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw1) != string(raw2) {
		t.Fatalf("canonical forms differ:\n%s\n%s", raw1, raw2)
	}
	h1, _ := min.Hash()
	h2, _ := cs.Hash()
	if h1 != h2 || len(h1) != 64 {
		t.Fatalf("hashes differ or malformed: %q vs %q", h1, h2)
	}
}

func TestSpecParseRoundTrip(t *testing.T) {
	spec := SchedulingSpec()
	raw, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := parsed.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Fatalf("round trip changed canonical bytes:\n%s\n%s", raw, raw2)
	}
}

func TestSpecParseRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"name":"x","clases":[]}`)); err == nil {
		t.Fatal("misspelled field accepted")
	}
	if _, err := ParseSpec([]byte(`{"name":"x","classes":[{"name":"interactive"}]}{}`)); err == nil {
		t.Fatal("trailing data accepted")
	}
	// The retired per-class admission priority is an unknown field like any
	// other: no alias keeps the old vocabulary alive.
	if _, err := ParseSpec([]byte(`{"classes":[{"name":"interactive","priority":"high"}]}`)); err == nil {
		t.Fatal("retired priority field accepted")
	}
}

func TestSpecValidation(t *testing.T) {
	base := func() Spec { return Spec{Classes: []Class{{Name: "interactive"}}} }
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"negative requests", func(s *Spec) { s.Requests = -1 }, "requests"},
		{"unknown process", func(s *Spec) { s.Arrival.Process = "pareto" }, "process"},
		{"negative rate", func(s *Spec) { s.Arrival.RatePerSec = -2 }, "rate_per_sec"},
		{"negative shape", func(s *Spec) { s.Arrival.Shape = -1 }, "shape"},
		{"amplitude one", func(s *Spec) { s.Arrival.DiurnalAmplitude = 1 }, "diurnal_amplitude"},
		{"negative period", func(s *Spec) { s.Arrival.DiurnalPeriodSec = -5 }, "diurnal_period"},
		{"no classes", func(s *Spec) { s.Classes = nil }, "class"},
		{"unknown class", func(s *Spec) { s.Classes[0].Name = "gold" }, "unknown class"},
		{"duplicate class", func(s *Spec) { s.Classes = append(s.Classes, Class{Name: "interactive"}) }, "duplicate"},
		{"negative weight", func(s *Spec) { s.Classes[0].Weight = -1 }, "weight"},
		{"negative steps", func(s *Spec) { s.Classes[0].Steps = -1 }, "steps"},
		{"negative timeout", func(s *Spec) { s.Classes[0].TimeoutMS = -1 }, "timeout"},
		{"negative distinct", func(s *Spec) { s.Classes[0].Pool.Distinct = -1 }, "distinct"},
		{"zipf at one", func(s *Spec) { s.Classes[0].Pool.Zipf = 1 }, "zipf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mut(&s)
			_, err := s.WithDefaults()
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestCommittedSchedulingSpecIsCanonical(t *testing.T) {
	// Every committed workload is its own canonical encoding — the specs CI
	// drives live daemons with and the -dump-spec round trip diffs against —
	// and workloads/scheduling.json is the built-in reference spec's.
	files, err := filepath.Glob("../../workloads/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed workloads found: %v", err)
	}
	for _, file := range files {
		disk, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParseSpec(disk)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if filepath.Base(file) == "scheduling.json" {
			spec = SchedulingSpec()
		}
		want, err := spec.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(disk) != string(want)+"\n" {
			t.Errorf("%s is not its canonical encoding\n got: %s\nwant: %s", file, disk, want)
		}
	}
}
