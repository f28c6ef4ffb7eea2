package history

import (
	"bytes"
	"reflect"
	"testing"

	"agcm/internal/frame"
	"agcm/internal/grid"
)

// TestFrameRoundTrip: frame-encoded history files decode back exactly, and
// identical files encode to identical bytes (the canonical-form property).
func TestFrameRoundTrip(t *testing.T) {
	f := demoFile(t)
	raw1, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("two encodings of the same file differ")
	}
	got, err := Read(bytes.NewReader(raw1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, f)
	}
	// And re-encoding the decoded file reproduces the bytes.
	raw3, err := EncodeFrame(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw3) {
		t.Fatal("encode(decode(encode(f))) != encode(f)")
	}
}

// TestFrameRejectsCorrupt: every single-bit corruption of a history frame
// is rejected (CRC or layout), never silently decoded and never a panic.
func TestFrameRejectsCorrupt(t *testing.T) {
	f := demoFile(t)
	raw, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(raw); off += 7 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x40
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at offset %d accepted", off)
		}
	}
	// A response frame is not a history frame, even though it parses.
	var b frame.Builder
	b.Begin(1)
	b.Uint32(1)
	resp, err := b.Finish(frame.TypeResponse)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(resp)); err == nil {
		t.Fatal("response frame accepted as a history file")
	}
}

// TestEncodeFrameValidates: EncodeFrame and Read agree on what a history
// file is — malformed in-memory files are refused at encode time by the
// checks the decoder makes, and whatever EncodeFrame returns, Read accepts.
func TestEncodeFrameValidates(t *testing.T) {
	small := grid.Spec{Nlon: 4, Nlat: 4, Nlayers: 1}
	orphan := demoFile(t)
	orphan.Names = append(orphan.Names, "orphan") // name without data
	short := demoFile(t)
	short.Data[0] = short.Data[0][:3]
	for _, tc := range []struct {
		name    string
		f       *File
		encodes bool
	}{
		{"name without data", orphan, false},
		{"short variable", short, false},
		{"degenerate grid", &File{Spec: grid.Spec{Nlon: 2, Nlat: 2, Nlayers: 1}}, false},
		{"nlon over cap", &File{Spec: grid.Spec{Nlon: 1 << 17, Nlat: 4, Nlayers: 1}}, false},
		{"nlayers over cap", &File{Spec: grid.Spec{Nlon: 4, Nlat: 4, Nlayers: 1 << 13}}, false},
		{"negative step", &File{Spec: small, Step: -1}, false},
		{"too many variables", &File{Spec: small, Names: make([]string, 1<<10+1), Data: make([][]float64, 1<<10+1)}, false},
		{"no variables", &File{Spec: small}, true},
		{"empty name", &File{Spec: small, Step: 7, Names: []string{""}, Data: [][]float64{make([]float64, 16)}}, true},
		{"demo", demoFile(t), true},
	} {
		raw, err := EncodeFrame(tc.f)
		if (err == nil) != tc.encodes {
			t.Errorf("%s: EncodeFrame error %v, want encodes=%v", tc.name, err, tc.encodes)
		}
		if err != nil {
			continue
		}
		got, err := Read(bytes.NewReader(raw))
		if err != nil {
			t.Errorf("%s: EncodeFrame wrote it, Read refuses it: %v", tc.name, err)
		} else if !sameFile(got, tc.f) {
			t.Errorf("%s: did not round-trip", tc.name)
		}
	}
}

// TestReadSizesVariablesFromTheirSections: a well-formed frame whose header
// declares the largest grid the caps allow but carries no such data is
// refused before anything is allocated from the declared size.
func TestReadSizesVariablesFromTheirSections(t *testing.T) {
	var b frame.Builder
	b.Begin(histSecMeta)
	b.Uint32(1 << 16)
	b.Uint32(1 << 16)
	b.Uint32(1 << 12)
	b.Uint64(0)
	b.Uint32(1)
	b.Begin(histSecNames)
	b.LenBytes([]byte("x"))
	b.Begin(histSecVarBase)
	b.Float64s(nil)
	raw, err := b.Finish(frame.TypeHistory)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Fatal("frame with a 2^44-point header and an empty variable accepted")
	}
}
