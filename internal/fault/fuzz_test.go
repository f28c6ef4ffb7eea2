package fault

import (
	"reflect"
	"testing"
)

// FuzzFaultParse: the -fault-spec parser takes outside bytes and must never
// panic, and every scenario it accepts canonicalizes to a fixed point —
// String renders a spec Parse accepts, that parses back to the same
// scenario and renders the same string again.
func FuzzFaultParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"seed=42; slow:rank=3,at=1.5,factor=4; crash:rank=1,at=9.2; jitter:max=2e-4; drop:prob=0.01,retries=4,timeout=5e-3",
		"slow:rank=2,at=1",           // default factor
		"drop:prob=0.1,timeout=1e-3", // default retries
		"jitter:max=1;jitter:max=2",  // the last clause wins
		"slow:rank=0,at=inf,factor=+Inf;crash:rank=+7,at=-0",
		"seed=0;crash:rank=1,at=0x1p-3",
		"slow:rank=1,zzz=1,aaa=2",
		"crash:rank=1,at=NaN",
		"seed=18446744073709551616",
		" ; ;slow : rank=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := Parse(in)
		if err != nil {
			return
		}
		canon := s.String()
		back, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q rejected: %v", canon, in, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("canonical round trip of %q changed the scenario:\n in  %+v\n out %+v", in, s, back)
		}
		if again := back.String(); again != canon {
			t.Fatalf("canonical form is not a fixed point: %q then %q", canon, again)
		}
	})
}
