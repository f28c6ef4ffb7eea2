package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"testing"
)

// FuzzDecodeRequest: the one /v1/run decoder never panics on outside bytes,
// and whatever it accepts is self-consistent — its grid has a positive
// point count, the key is JobKeyFor of the decoded config, which is still
// sha256(ConfigKey ":" steps), and the canonical form re-decodes to the same
// key and class.  Through a Memo, a miss and then a hit return what
// DecodeRequest does, a rejected body is never stored, and a hit resolves
// the class against its own header.
func FuzzDecodeRequest(f *testing.F) {
	const cfg = `{"config":{"nlon":36,"nlat":24,"nlayers":3,"machine":"paragon","mesh_py":1,"mesh_px":1,"filter":"fft"}`
	for _, seed := range []struct{ body, header string }{
		{cfg + `,"steps":2,"slo":"interactive","timeout_ms":5000}`, ""}, // valid
		{cfg + `}`, "interactive"},                                      // header-only class
		{cfg + `,"stepz":1}`, ""},                                       // unknown field
		{cfg + `,"priority":"high"}`, ""},                               // the retired field
		{cfg + `,"steps":1}{"steps":99} garbage`, ""},                   // trailing data
		{cfg + `,"steps":9223372036854775807}`, ""},                     // huge steps
		{cfg + `,"timeout_ms":-5}`, ""},                                 // negative timeout
		{cfg + `,"slo":"bulk"}`, "batch"},                               // bad slo
		{`{"steps":1}`, ""},                                             // missing config
		{`{"config":{"nlon":4294967296,"nlat":4294967296,"nlayers":1,"machine":"paragon","mesh_py":1,"mesh_px":1,"filter":"fft"}}`, ""}, // points overflow int
	} {
		f.Add([]byte(seed.body), seed.header)
	}
	f.Fuzz(func(t *testing.T, body []byte, header string) {
		h := http.Header{}
		h.Set(SLOHeader, header)
		req, err := DecodeRequest(bytes.NewReader(body), h)
		checkMemo(t, body, h, req, err)
		if err != nil {
			return
		}
		if req.Steps < 1 {
			t.Fatalf("accepted steps %d", req.Steps)
		}
		if n := req.Config.Spec.Points(); n <= 0 {
			t.Fatalf("accepted %+v with %d points", req.Config.Spec, n)
		}
		key, err := JobKeyFor(req.Config, req.Steps)
		if err != nil || key != req.Key {
			t.Fatalf("key %q, JobKeyFor gives %q (%v)", req.Key, key, err)
		}
		ck, err := req.Config.ConfigKey()
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256([]byte(ck + ":" + strconv.Itoa(req.Steps))); hex.EncodeToString(sum[:]) != key {
			t.Fatalf("key %q is not sha256(ConfigKey:steps)", key)
		}
		again := []byte(fmt.Sprintf(`{"config":%s,"steps":%d,"slo":%q}`, req.Canonical, req.Steps, req.Class))
		back, err := DecodeRequest(bytes.NewReader(again), http.Header{})
		if err != nil {
			t.Fatalf("canonical form %s rejected: %v", again, err)
		}
		if back.Key != req.Key || back.Class != req.Class {
			t.Fatalf("re-decode moved (%s, %v) to (%s, %v)", req.Key, req.Class, back.Key, back.Class)
		}
	})
}

// checkMemo decodes body through a fresh Memo twice — a miss, then a hit —
// and holds both to DecodeRequest's verdict want/wantErr; then it sends the
// body under each other header class (and a bad one) and holds the hit to
// DecodeRequest under that header.
func checkMemo(t *testing.T, body []byte, h http.Header, want *Request, wantErr error) {
	t.Helper()
	m := NewMemo()
	for _, pass := range []string{"miss", "hit"} {
		got, raw, err := m.decode(body, h)
		if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("memo %s: error %v, DecodeRequest %v", pass, err, wantErr)
		}
		if err != nil {
			if m.Len() != 0 {
				t.Fatalf("a rejected body was stored")
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("memo %s: %+v, DecodeRequest %+v", pass, got, want)
		}
		if raw != string(body) {
			t.Fatalf("memo %s: raw body %q, want %q", pass, raw, body)
		}
	}
	for _, slo := range []string{"interactive", "batch", "", "bulk"} {
		h2 := http.Header{}
		h2.Set(SLOHeader, slo)
		want2, wantErr2 := DecodeRequest(bytes.NewReader(body), h2)
		got, _, err := m.decode(body, h2)
		if (err != nil) != (wantErr2 != nil) || !reflect.DeepEqual(got, want2) {
			t.Fatalf("hit under header %q: %+v (%v), DecodeRequest %+v (%v)", slo, got, err, want2, wantErr2)
		}
	}
}
