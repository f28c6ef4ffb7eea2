package history

import (
	"bytes"
	"encoding/binary"
	"io"
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

// writeLegacy is the retired "AGMH" stream encoder, kept only to feed the
// reader's tests.  The header is always big-endian so a reader can detect
// the payload order from the stored flag.
func writeLegacy(w io.Writer, f *File, bo byteOrder) error {
	hdr := []uint32{
		Magic, Version, uint32(bo),
		uint32(f.Spec.Nlon), uint32(f.Spec.Nlat), uint32(f.Spec.Nlayers),
		uint32(f.Step), uint32(len(f.Names)),
	}
	if err := binary.Write(w, binary.BigEndian, hdr); err != nil {
		return err
	}
	ord := bo.order()
	for i, name := range f.Names {
		if err := binary.Write(w, binary.BigEndian, uint32(len(name))); err != nil {
			return err
		}
		if _, err := io.WriteString(w, name); err != nil {
			return err
		}
		buf := make([]byte, 8*len(f.Data[i]))
		for j, v := range f.Data[i] {
			ord.PutUint64(buf[8*j:], math.Float64bits(v))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func TestRoundTripBothByteOrders(t *testing.T) {
	for _, bo := range []byteOrder{bigEndian, littleEndian} {
		f := demoFile(t)
		var buf bytes.Buffer
		if err := writeLegacy(&buf, f, bo); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Step != 42 || got.Spec != f.Spec {
			t.Fatalf("metadata mismatch: %+v", got)
		}
		for vi, name := range f.Names {
			data, err := got.Variable(name)
			if err != nil {
				t.Fatal(err)
			}
			for i := range data {
				if data[i] != f.Data[vi][i] {
					t.Fatalf("order %d variable %s index %d: %g != %g",
						bo, name, i, data[i], f.Data[vi][i])
				}
			}
		}
	}
}

func TestDifferentByteOrdersDifferOnDisk(t *testing.T) {
	f := demoFile(t)
	var big, little bytes.Buffer
	if err := writeLegacy(&big, f, bigEndian); err != nil {
		t.Fatal(err)
	}
	if err := writeLegacy(&little, f, littleEndian); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(big.Bytes(), little.Bytes()) {
		t.Fatal("big- and little-endian files identical; endianness ignored")
	}
	if big.Len() != little.Len() {
		t.Fatal("file sizes differ between byte orders")
	}
}

func TestReverseBytesConvertsEndianness(t *testing.T) {
	// Reversing each 8-byte word of a big-endian payload must yield the
	// little-endian payload — the paper's conversion routine.
	f := demoFile(t)
	var big, little bytes.Buffer
	if err := writeLegacy(&big, f, bigEndian); err != nil {
		t.Fatal(err)
	}
	if err := writeLegacy(&little, f, littleEndian); err != nil {
		t.Fatal(err)
	}
	// Headers (8*4 bytes) are both big-endian; the per-variable name
	// blocks are identical; only the float payloads differ.  Convert the
	// whole big payload variable by variable.
	bb := big.Bytes()
	lb := little.Bytes()
	// The stored byte-order flag (header word 2) legitimately differs;
	// align it so the comparison checks only the payload conversion.
	bb[11] = lb[11]
	// Walk the format: 32-byte header, then per variable 4-byte name
	// length + name + 8*Points payload.
	off := 32
	for v := 0; v < 3; v++ {
		nameLen := int(bb[off+3]) // small names, big-endian u32
		off += 4 + nameLen
		payload := bb[off : off+8*f.Spec.Points()]
		if err := ReverseBytes(payload); err != nil {
			t.Fatal(err)
		}
		off += 8 * f.Spec.Points()
	}
	if !bytes.Equal(bb, lb) {
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

func TestReadRejectsCorruptHeaders(t *testing.T) {
	f := demoFile(t)
	var buf bytes.Buffer
	if err := writeLegacy(&buf, f, bigEndian); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := func(mutate func(b []byte)) error {
		b := append([]byte(nil), good...)
		mutate(b)
		_, err := Read(bytes.NewReader(b))
		return err
	}
	if err := corrupt(func(b []byte) { b[0] = 0xFF }); err == nil {
		t.Error("bad magic accepted")
	}
	if err := corrupt(func(b []byte) { b[7] = 99 }); err == nil {
		t.Error("bad version accepted")
	}
	if err := corrupt(func(b []byte) { b[11] = 9 }); err == nil {
		t.Error("bad byte-order flag accepted")
	}
	// Truncated payload.
	if _, err := Read(bytes.NewReader(good[:len(good)-10])); err == nil {
		t.Error("truncated file accepted")
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
	data[3] = -0.0
	data[4] = math.MaxFloat64
	if err := f.AddVariable("x", data); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeLegacy(&buf, f, littleEndian); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := got.Variable("x")
	for i := 0; i < 5; i++ {
		if math.Float64bits(x[i]) != math.Float64bits(data[i]) {
			t.Fatalf("value %d: bits differ", i)
		}
	}
}
