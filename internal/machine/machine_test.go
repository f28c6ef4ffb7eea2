package machine

import (
	"math"
	"testing"
)

func TestAllModelsValidate(t *testing.T) {
	for _, m := range All() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		// A paper machine's rates are the simulation's ground truth: the
		// roofline prices them on the critical path at unit efficiency.
		if m.Aggregate != AggregateMaxRank || m.Eff != Unit {
			t.Errorf("%s: priced as %q at %+v, want the simulator's own view", m.Name, m.Aggregate, m.Eff)
		}
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Model)
	}{
		{"zero flop rate", func(m *Model) { m.FlopRate = 0 }},
		{"zero mem bandwidth", func(m *Model) { m.MemBandwidth = 0 }},
		{"zero net bandwidth", func(m *Model) { m.Bandwidth = 0 }},
		{"negative latency", func(m *Model) { m.Latency = -1 }},
		{"negative send overhead", func(m *Model) { m.SendOverhead = -1 }},
		{"empty name", func(m *Model) { m.Name = "" }},
		{"unknown aggregate", func(m *Model) { m.Aggregate = "mean" }},
		{"zero efficiency", func(m *Model) { m.Eff.Physics = 0 }},
		{"NaN efficiency", func(m *Model) { m.Eff.Network = math.NaN() }},
	}
	for _, tc := range cases {
		m := Paragon()
		tc.mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
	}
}

func TestCostFunctions(t *testing.T) {
	m := &Model{
		Name: "test", FlopRate: 1e6, MemBandwidth: 1e7,
		SendOverhead: 1e-5, RecvOverhead: 2e-5,
		Latency: 1e-4, Bandwidth: 1e8,
	}
	if got := m.FlopSeconds(2e6); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("FlopSeconds(2e6) = %g, want 2", got)
	}
	if got := m.MemSeconds(1e7); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("MemSeconds(1e7) = %g, want 1", got)
	}
	if got := m.SendOverheadSeconds(100); got != 1e-5 {
		t.Errorf("SendOverheadSeconds = %g, want 1e-5", got)
	}
	if got := m.RecvOverheadSeconds(100); got != 2e-5 {
		t.Errorf("RecvOverheadSeconds = %g, want 2e-5", got)
	}
	if got := m.NetworkSeconds(1000); math.Abs(got-(1e-4+1000/1e8)) > 1e-15 {
		t.Errorf("NetworkSeconds(1000) = %g, want %g", got, 1e-4+1000/1e8)
	}
}

func TestT3DFasterThanParagon(t *testing.T) {
	// The paper reports the AGCM runs about 2.5x faster per node on the
	// T3D.  The calibrated sustained rates must preserve that ordering.
	p, c := Paragon(), CrayT3D()
	ratio := p.FlopSeconds(1) / c.FlopSeconds(1)
	if ratio < 2.0 || ratio > 3.0 {
		t.Errorf("T3D/Paragon per-flop speed ratio = %.2f, want in [2,3]", ratio)
	}
	if c.Latency >= p.Latency {
		t.Errorf("T3D latency %g should be below Paragon latency %g", c.Latency, p.Latency)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"paragon", "t3d", "sp2", "Paragon", "T3D", "SP-2",
		"PARAGON", "Sp-2", "cray t3d", "ibm sp2"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("cm5"); err == nil {
		t.Errorf("ByName(cm5) should fail")
	}
	if _, err := ByName(""); err == nil {
		t.Errorf("ByName(\"\") should fail")
	}
}

func TestHostModel(t *testing.T) {
	h := Host()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"host", "hostcpu", "Host CPU", "HOST"} {
		got, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if got.Name != h.Name {
			t.Fatalf("ByName(%q).Name = %q", name, got.Name)
		}
	}
	// The paper experiments iterate All(); the host must stay out of them.
	for _, m := range All() {
		if m.Name == h.Name {
			t.Fatal("Host leaked into All()")
		}
	}
	// Priced, the host is this process: every rank's work on one clock.
	if h.Aggregate != AggregateSum {
		t.Fatalf("host must aggregate total work, got %q", h.Aggregate)
	}
	// Thirty years on, the host outruns every 1996 node.
	for _, m := range All() {
		if h.FlopRate <= m.FlopRate || h.MemBandwidth <= m.MemBandwidth {
			t.Fatalf("host model slower than %s", m.Name)
		}
	}
}

func TestByNameRoundTripsModelName(t *testing.T) {
	// The report header prints Model.Name; operators paste it back into
	// -machine.  Every display name must resolve to the same model.
	for _, m := range append(All(), Host()) {
		got, err := ByName(m.Name)
		if err != nil {
			t.Errorf("ByName(%q): %v", m.Name, err)
			continue
		}
		if *got != *m {
			t.Errorf("ByName(%q) = %+v, want %+v", m.Name, got, m)
		}
	}
}

func TestDegraded(t *testing.T) {
	base := CrayT3D()
	d := Degraded(base, 2)
	if d.FlopRate != base.FlopRate/2 || d.MemBandwidth != base.MemBandwidth/2 {
		t.Errorf("processor rates not halved")
	}
	if d.Latency != base.Latency || d.Bandwidth != base.Bandwidth {
		t.Errorf("network must be untouched")
	}
	if base.FlopRate != CrayT3D().FlopRate {
		t.Errorf("Degraded mutated its input")
	}
	if err := d.Validate(); err != nil {
		t.Errorf("degraded model invalid: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("factor 0 accepted")
			}
		}()
		Degraded(base, 0)
	}()
}

func TestStringReturnsName(t *testing.T) {
	if got := Paragon().String(); got != "Intel Paragon" {
		t.Errorf("String() = %q", got)
	}
}

var sink *Model

// TestLookupAllocFree: names match without building a string, Lookup
// returns a value, and ByName's one allocation is its fresh model — a
// caller changing it changes no later lookup.  Near-misses of the aliases
// (a letter short, a letter over, a stray character) still fail.
func TestLookupAllocFree(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { Lookup("IBM SP-2") }); allocs != 0 {
		t.Fatalf("Lookup allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { sink, _ = ByName("Intel Paragon") }); allocs != 1 {
		t.Fatalf("ByName allocates %v times, want 1", allocs)
	}
	m, err := ByName("paragon")
	if err != nil {
		t.Fatal(err)
	}
	m.FlopRate = 1
	if again, _ := Lookup("paragon"); again != *Paragon() {
		t.Fatal("changing ByName's model changed the next lookup")
	}
	for _, name := range []string{"paragonx", "aragon", "t3", "t3dd", "sp22", "ibm sp", "hostcp", "paragon!", "cray_t3d2"} {
		if _, err := Lookup(name); err == nil {
			t.Errorf("Lookup(%q) matched", name)
		}
	}
	for _, name := range []string{"Cray T3D ", "-paragon-", "IBM_SP_2", "host CPU"} {
		if _, err := Lookup(name); err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
		}
	}
}
