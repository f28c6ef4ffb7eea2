package history

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"agcm/internal/grid"
)

func demoFile(t *testing.T) *File {
	t.Helper()
	spec := grid.Spec{Nlon: 8, Nlat: 6, Nlayers: 2}
	f := &File{Spec: spec, Step: 42}
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"u", "v", "h"} {
		data := make([]float64, spec.Points())
		for i := range data {
			data[i] = rng.NormFloat64() * 100
		}
		if err := f.AddVariable(name, data); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestReverseBytesConvertsEndianness(t *testing.T) {
	// Reversing each 8-byte word of a big-endian payload must yield the
	// little-endian payload — the paper's conversion routine.
	data := demoFile(t).Data[0]
	big := make([]byte, 8*len(data))
	little := make([]byte, 8*len(data))
	for i, v := range data {
		binary.BigEndian.PutUint64(big[8*i:], math.Float64bits(v))
		binary.LittleEndian.PutUint64(little[8*i:], math.Float64bits(v))
	}
	if err := ReverseBytes(big); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(big, little) {
		t.Fatal("ReverseBytes did not convert big-endian payload to little-endian")
	}
}

func TestReverseBytesRejectsBadLength(t *testing.T) {
	if err := ReverseBytes(make([]byte, 12)); err == nil {
		t.Fatal("expected error for non-multiple-of-8 buffer")
	}
}

func TestReverseBytesInvolution(t *testing.T) {
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	orig := append([]byte(nil), buf...)
	if err := ReverseBytes(buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, orig) {
		t.Fatal("ReverseBytes was a no-op")
	}
	if err := ReverseBytes(buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, orig) {
		t.Fatal("ReverseBytes not an involution")
	}
}

// TestReadNamesRetiredFormat: the stream format that preceded frames is
// refused by name, with the way to convert it, not as a bad frame magic.
func TestReadNamesRetiredFormat(t *testing.T) {
	hdr := []byte{'A', 'G', 'M', 'H', 0, 0, 0, 1, 0, 0, 0, 0}
	_, err := Read(bytes.NewReader(hdr))
	if err == nil {
		t.Fatal("AGMH stream accepted")
	}
	for _, want := range []string{`retired "AGMH"`, "save it again", "PR 22 or earlier"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
}

func TestAddVariableValidatesLength(t *testing.T) {
	f := &File{Spec: grid.Spec{Nlon: 8, Nlat: 6, Nlayers: 2}}
	if err := f.AddVariable("u", make([]float64, 5)); err == nil {
		t.Fatal("wrong-length variable accepted")
	}
}

func TestVariableNotFound(t *testing.T) {
	f := demoFile(t)
	if _, err := f.Variable("nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("err = %v", err)
	}
}

func TestSpecialFloatValuesSurvive(t *testing.T) {
	spec := grid.Spec{Nlon: 4, Nlat: 4, Nlayers: 1}
	f := &File{Spec: spec}
	data := make([]float64, spec.Points())
	data[0] = math.Inf(1)
	data[1] = math.Inf(-1)
	data[2] = math.SmallestNonzeroFloat64
	data[3] = math.Copysign(0, -1)
	data[4] = math.MaxFloat64
	data[5] = math.Float64frombits(0x7FF8000000000BAD) // a NaN with a payload
	if err := f.AddVariable("x", data); err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	x, _ := got.Variable("x")
	for i := 0; i < 6; i++ {
		if math.Float64bits(x[i]) != math.Float64bits(data[i]) {
			t.Fatalf("value %d: bits differ", i)
		}
	}
}
