package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseSpec: the spec parser takes outside bytes (agcmload -spec) and
// must never panic, and every spec it accepts canonicalizes to a fixed
// point — the canonical bytes parse again and re-canonicalize unchanged, so
// the spec hash a report carries is the hash of a file that would replay.
func FuzzParseSpec(f *testing.F) {
	files, err := filepath.Glob("../../workloads/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, seed := range []string{
		`{"classes":[{"name":"batch"}]}`, // everything defaulted
		`{"classes":[{"name":"interactive","weight":-0}],"arrival":{"diurnal_amplitude":-0}}`,
		`{"classes":[{"name":"batch","pool":{"zipf":1}}]}`,             // zipf in (0, 1]
		`{"classes":[{"name":"batch"},{"name":"batch"}]}`,              // duplicate class
		`{"classes":[{"name":"batch"}],"seed":1}{"seed":2}`,            // trailing data
		`{"classes":[{"name":"batch"}],"sede":1}`,                      // unknown field
		`{"NAME":"é` + "\xff" + `<&>","classes":[{"name":"batch"}]}`,   // case-folded key, bad UTF-8, escapes
		`{"requests":-1,"classes":[{"name":"batch","timeout_ms":-1}]}`, // negative counts
		`{"arrival":{"process":"weibull","shape":1e308},"classes":[{"name":"batch"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		canon, err := s.CanonicalJSON()
		if err != nil {
			t.Fatalf("accepted spec does not canonicalize: %v", err)
		}
		back, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %s rejected: %v", canon, err)
		}
		again, err := back.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, canon) {
			t.Fatalf("canonical form is not a fixed point:\n in  %s\n out %s", canon, again)
		}
	})
}
