package history

import (
	"bytes"
	"reflect"
	"testing"

	"agcm/internal/frame"
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

// TestVersionGatedReader: one Read loads all three on-disk forms — legacy
// big-endian, legacy little-endian, and frame — so checkpoints written
// before the frame migration still restore.
func TestVersionGatedReader(t *testing.T) {
	f := demoFile(t)
	encodings := map[string][]byte{}
	for name, enc := range map[string]func() ([]byte, error){
		"legacy-big": func() ([]byte, error) {
			var b bytes.Buffer
			err := writeLegacy(&b, f, bigEndian)
			return b.Bytes(), err
		},
		"legacy-little": func() ([]byte, error) {
			var b bytes.Buffer
			err := writeLegacy(&b, f, littleEndian)
			return b.Bytes(), err
		},
		"frame": func() ([]byte, error) { return EncodeFrame(f) },
	} {
		raw, err := enc()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		encodings[name] = raw
	}
	for name, raw := range encodings {
		got, err := Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Step != f.Step || got.Spec != f.Spec || !reflect.DeepEqual(got.Names, f.Names) {
			t.Fatalf("%s: metadata mismatch: %+v", name, got)
		}
		for i := range f.Data {
			if !reflect.DeepEqual(got.Data[i], f.Data[i]) {
				t.Fatalf("%s: variable %q differs", name, f.Names[i])
			}
		}
	}
}

// TestFrameVariableRandomAccess: a single variable comes out of the frame
// bytes without decoding the others, and matches the full decode.
func TestFrameVariableRandomAccess(t *testing.T) {
	f := demoFile(t)
	raw, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range f.Names {
		data, err := FrameVariable(raw, name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if !reflect.DeepEqual(data, f.Data[i]) {
			t.Fatalf("%q: random-access data differs from source", name)
		}
	}
	if _, err := FrameVariable(raw, "no-such-variable"); err == nil {
		t.Fatal("FrameVariable found a variable that does not exist")
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

// TestEncodeFrameValidates: malformed in-memory files are refused at
// encode time, mirroring the legacy writer's checks.
func TestEncodeFrameValidates(t *testing.T) {
	f := demoFile(t)
	f.Names = append(f.Names, "orphan") // name without data
	if _, err := EncodeFrame(f); err == nil {
		t.Fatal("EncodeFrame accepted mismatched names/data")
	}
	f = demoFile(t)
	f.Data[0] = f.Data[0][:3] // wrong length
	if _, err := EncodeFrame(f); err == nil {
		t.Fatal("EncodeFrame accepted short variable data")
	}
}
