package fault

import (
	"strings"
	"testing"
)

func TestParseFullSpec(t *testing.T) {
	s, err := Parse("seed=42; slow:rank=3,at=1.5,factor=4; crash:rank=1,at=9.2; jitter:max=2e-4; drop:prob=0.01,retries=4,timeout=5e-3")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 42 {
		t.Errorf("Seed = %d, want 42", s.Seed)
	}
	if len(s.Slowdowns) != 1 || s.Slowdowns[0] != (Slowdown{Rank: 3, At: 1.5, Factor: 4}) {
		t.Errorf("Slowdowns = %+v", s.Slowdowns)
	}
	if len(s.Crashes) != 1 || s.Crashes[0] != (Crash{Rank: 1, At: 9.2}) {
		t.Errorf("Crashes = %+v", s.Crashes)
	}
	if s.Jitter == nil || s.Jitter.Max != 2e-4 {
		t.Errorf("Jitter = %+v", s.Jitter)
	}
	if s.Drop == nil || *s.Drop != (Drop{Prob: 0.01, Retries: 4, Timeout: 5e-3}) {
		t.Errorf("Drop = %+v", s.Drop)
	}
}

func TestParseDefaults(t *testing.T) {
	s, err := Parse("slow:rank=2,at=1")
	if err != nil {
		t.Fatal(err)
	}
	if s.Slowdowns[0].Factor != 2 {
		t.Errorf("default slowdown factor = %g, want 2", s.Slowdowns[0].Factor)
	}
	s, err = Parse("drop:prob=0.1,timeout=1e-3")
	if err != nil {
		t.Fatal(err)
	}
	if s.Drop.Retries != 3 {
		t.Errorf("default drop retries = %d, want 3", s.Drop.Retries)
	}
}

func TestParseEmpty(t *testing.T) {
	s, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Empty() {
		t.Fatalf("Parse(\"\") = %+v, want empty spec", s)
	}
}

func TestParseRoundTrip(t *testing.T) {
	in := "seed=7;slow:rank=3,at=1.5,factor=4;crash:rank=1,at=9.2;jitter:max=0.0002;drop:prob=0.01,retries=4,timeout=0.005"
	s, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(s.String())
	if err != nil {
		t.Fatalf("re-parsing String() %q: %v", s.String(), err)
	}
	if s2.String() != s.String() {
		t.Fatalf("round trip changed spec: %q vs %q", s.String(), s2.String())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ in, wantSub string }{
		{"boom:x=1", "unknown clause kind"},
		{"slow:rank=1,at=0,speed=2", "unknown parameter"},
		{"slow:at=0", "rank -1 negative"}, // missing rank fails validation
		{"crash:rank=notanumber,at=1", "not an integer"},
		{"jitter:max=zero", "not a number"},
		{"seed=abc", "bad seed"},
		{"seed=5:rank=1", "bad seed"}, // parameters on the bare seed clause were silently dropped
		{"slow:rank", "want key=value"},
		{"drop:prob=1.5,timeout=1", "outside [0, 1)"},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) error = %v, want substring %q", c.in, err, c.wantSub)
		}
	}
}

// TestParseErrorDeterministic pins which error Parse reports when several
// parameters are bad: assign visits keys in sorted order, so the
// alphabetically first unknown parameter wins regardless of map iteration
// order.
func TestParseErrorDeterministic(t *testing.T) {
	for i := 0; i < 50; i++ {
		_, err := Parse("slow:rank=1,zzz=1,aaa=2,mmm=3")
		if err == nil || !strings.Contains(err.Error(), `unknown parameter "aaa"`) {
			t.Fatalf("iteration %d: Parse error = %v, want the alphabetically first unknown parameter %q", i, err, "aaa")
		}
	}
}
