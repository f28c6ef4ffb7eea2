package roofline

import (
	"encoding/json"
	"strings"
	"testing"

	"agcm/internal/machine"
)

func validCalib() *machine.Model {
	return &machine.Model{
		Name:         "test",
		Aggregate:    machine.AggregateMaxRank,
		FlopRate:     1e9,
		MemBandwidth: 1e10,
		SendOverhead: 1e-6,
		RecvOverhead: 1e-6,
		Latency:      1e-6,
		Bandwidth:    1e8,
		Eff:          machine.Efficiencies{Dynamics: 0.5, Physics: 0.25, FilterConv: 0.8, FilterFFT: 0.1, Network: 0.9},
	}
}

// TestCalibValidate: both front doors — a calibration file and a predictor —
// refuse a model that cannot price work.
func TestCalibValidate(t *testing.T) {
	if _, err := NewMachine(validCalib()); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*machine.Model)
	}{
		{"empty name", func(m *machine.Model) { m.Name = "" }},
		{"bad aggregate", func(m *machine.Model) { m.Aggregate = "mean" }},
		{"zero flops ceiling", func(m *machine.Model) { m.FlopRate = 0 }},
		{"negative bandwidth", func(m *machine.Model) { m.MemBandwidth = -1 }},
		{"zero net bandwidth", func(m *machine.Model) { m.Bandwidth = 0 }},
		{"negative latency", func(m *machine.Model) { m.Latency = -1e-9 }},
		{"negative overhead", func(m *machine.Model) { m.SendOverhead = -1 }},
		{"zero efficiency", func(m *machine.Model) { m.Eff.Physics = 0 }},
		{"negative efficiency", func(m *machine.Model) { m.Eff.Network = -0.5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := validCalib()
			tc.mut(m)
			if _, err := NewMachine(m); err == nil {
				t.Fatalf("NewMachine accepted %s", tc.name)
			}
			raw, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ParseCalib(raw); err == nil {
				t.Fatalf("ParseCalib accepted %s", tc.name)
			}
		})
	}
}

func TestCalibCanonicalJSONRoundTrip(t *testing.T) {
	m := validCalib()
	raw, err := m.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	// Canonical means the field order is fixed by the schema, not the input.
	at := -1
	for _, want := range []string{`"name"`, `"aggregate"`, `"flops_per_sec"`,
		`"bytes_per_sec"`, `"send_overhead_s"`, `"recv_overhead_s"`,
		`"net_latency_s"`, `"net_bytes_per_sec"`, `"efficiency"`} {
		i := strings.Index(string(raw), want)
		if i <= at {
			t.Fatalf("canonical JSON lacks %s after offset %d: %s", want, at, raw)
		}
		at = i
	}
	back, err := ParseCalib(raw)
	if err != nil {
		t.Fatal(err)
	}
	if *back != *m {
		t.Fatalf("round trip changed the model:\n  in  %+v\n  out %+v", m, back)
	}
	raw2, err := back.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Fatalf("re-encoding is not byte-stable:\n  %s\n  %s", raw, raw2)
	}
}

func TestCalibHashTracksContent(t *testing.T) {
	a := validCalib()
	h1, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash not stable: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Fatalf("hash is not sha-256 hex: %q", h1)
	}
	b := *a
	b.FlopRate *= 2
	h3, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("different models share a hash")
	}
	bad := *a
	bad.Name = ""
	if _, err := bad.Hash(); err == nil {
		t.Fatal("Hash accepted an invalid model")
	}
}

func TestParseCalibRejectsUnknownAndTrailing(t *testing.T) {
	good, err := validCalib().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	withUnknown := strings.Replace(string(good), `"name"`, `"flop_ceiling":1,"name"`, 1)
	if _, err := ParseCalib([]byte(withUnknown)); err == nil {
		t.Fatal("ParseCalib accepted an unknown field")
	}
	if _, err := ParseCalib(append(append([]byte{}, good...), []byte("{}")...)); err == nil {
		t.Fatal("ParseCalib accepted trailing data")
	}
	if _, err := ParseCalib([]byte(`{"name":"x"}`)); err == nil {
		t.Fatal("ParseCalib accepted an invalid model")
	}
	// A file in the retired calibration layout (one summed message overhead)
	// fails by naming the field, instead of pricing messages at zero.
	retired := strings.Replace(string(good), `"send_overhead_s":0.000001,"recv_overhead_s":0.000001`, `"msg_overhead_s":0.000002`, 1)
	if retired == string(good) {
		t.Fatalf("test did not rewrite %s", good)
	}
	if _, err := ParseCalib([]byte(retired)); err == nil || !strings.Contains(err.Error(), "msg_overhead_s") {
		t.Fatalf("retired layout: err = %v, want it to name msg_overhead_s", err)
	}
}

func TestEfficienciesByClass(t *testing.T) {
	e := machine.Efficiencies{Dynamics: 0.1, Physics: 0.2, FilterConv: 0.3, FilterFFT: 0.4, Network: 0.5}
	want := [NumClasses]float64{0.1, 0.2, 0.3, 0.4, 0.5}
	names := [NumClasses]string{"dynamics", "physics", "filter-conv", "filter-fft", "network"}
	for c := Class(0); c < NumClasses; c++ {
		if got := *c.eff(&e); got != want[c] {
			t.Fatalf("efficiency of %s = %g, want %g", c, got, want[c])
		}
		*c.eff(&e) = float64(c) + 10
		if c.String() != names[c] {
			t.Fatalf("class %d named %q, want %q", c, c.String(), names[c])
		}
	}
	// Each class writes its own field and no other.
	if e != (machine.Efficiencies{Dynamics: 10, Physics: 11, FilterConv: 12, FilterFFT: 13, Network: 14}) {
		t.Fatalf("writing every class through eff gave %+v", e)
	}
	if got := NumClasses.String(); got != "class(5)" {
		t.Fatalf("out-of-range class named %q", got)
	}
}

// TestDefaultHostIsValid: the built-in host model prices jobs the way the
// host runs them — every rank on one clock.
func TestDefaultHostIsValid(t *testing.T) {
	h := DefaultHost()
	if *h != *machine.Host() {
		t.Fatalf("DefaultHost %+v is not machine.Host", h)
	}
	if h.Aggregate != machine.AggregateSum {
		t.Fatalf("host must aggregate total work, got %q", h.Aggregate)
	}
	if _, err := NewMachine(h); err != nil {
		t.Fatal(err)
	}
}
