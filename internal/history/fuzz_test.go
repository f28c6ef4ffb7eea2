package history

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"agcm/internal/grid"
)

// sameFile compares two files value bit for value bit (a NaN equals itself).
func sameFile(a, b *File) bool {
	if a.Spec != b.Spec || a.Step != b.Step || !reflect.DeepEqual(a.Names, b.Names) || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if len(a.Data[i]) != len(b.Data[i]) {
			return false
		}
		for j, v := range a.Data[i] {
			if math.Float64bits(v) != math.Float64bits(b.Data[i][j]) {
				return false
			}
		}
	}
	return true
}

// FuzzRead exercises the history parser on arbitrary byte streams: it must
// return an error or a valid file, never panic or over-allocate wildly, and
// every file it accepts must survive EncodeFrame and Read unchanged.
func FuzzRead(f *testing.F) {
	spec := grid.Spec{Nlon: 4, Nlat: 4, Nlayers: 1}
	file := &File{Spec: spec, Step: 1}
	data := make([]float64, spec.Points())
	for i := range data {
		data[i] = float64(i)
	}
	if err := file.AddVariable("u", data); err != nil {
		f.Fatal(err)
	}
	good, err := EncodeFrame(file)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:4]) // bare frame magic
	mut := append([]byte(nil), good...)
	mut[len(mut)-10] ^= 1 // payload bit flip: CRC must catch it
	f.Add(mut)
	f.Add([]byte{'A', 'G', 'M', 'H', 0, 0, 0, 1, 0, 0, 0, 0}) // the retired stream's header
	f.Add([]byte{})
	f.Add(good[:len(good)-4]) // CRC trailer cut off
	f.Add(append(append([]byte(nil), good...), 0))
	empty, err := EncodeFrame(&File{Spec: spec})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty) // no variables

	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := Read(bytes.NewReader(in))
		if err != nil {
			return
		}
		// A successful parse must be internally consistent.
		if got.Spec.Validate() != nil {
			t.Fatalf("accepted file with invalid spec %+v", got.Spec)
		}
		for i, d := range got.Data {
			if len(d) != got.Spec.Points() {
				t.Fatalf("variable %d has %d values, want %d", i, len(d), got.Spec.Points())
			}
		}
		raw, err := EncodeFrame(got)
		if err != nil {
			t.Fatalf("Read accepted a file EncodeFrame refuses: %v", err)
		}
		again, err := Read(bytes.NewReader(raw))
		if err != nil || !sameFile(again, got) {
			t.Fatalf("Read(EncodeFrame(got)) != got (err %v)", err)
		}
	})
}
