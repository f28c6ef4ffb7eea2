package roofline

import (
	"bytes"
	"testing"
)

// FuzzParseCalib: the calibration parser takes outside bytes (agcmd -calib)
// and must never panic, and every calibration it accepts canonicalizes to a
// fixed point — the canonical bytes parse back to the same value and
// re-encode unchanged, so a committed calibration hashes stably.
func FuzzParseCalib(f *testing.F) {
	for _, c := range []Calib{validCalib(), DefaultHost()} {
		raw, err := c.CanonicalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, seed := range []string{
		`{"name":"x"}`, // invalid: zero ceilings
		`{"name":"x","aggregate":"sum","flops_per_sec":1,"bytes_per_sec":1,"net_bytes_per_sec":1,"net_latency_s":-0,"msg_overhead_s":0,` +
			`"efficiency":{"dynamics":1e-320,"physics":1e308,"filter_conv":1,"filter_fft":1,"network":1}}`,
		`{"NAME":"x","Aggregate":"max-rank"}`, // case-folded keys
		`{"name":"x","efficiency":{"dynamic":1}}`,
		`{}{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		c, err := ParseCalib(in)
		if err != nil {
			return
		}
		canon, err := c.CanonicalJSON()
		if err != nil {
			t.Fatalf("accepted calib does not canonicalize: %v", err)
		}
		back, err := ParseCalib(canon)
		if err != nil {
			t.Fatalf("canonical form %s rejected: %v", canon, err)
		}
		if back != c {
			t.Fatalf("canonical round trip changed the calib:\n in  %+v\n out %+v", c, back)
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
