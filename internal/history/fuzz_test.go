package history

import (
	"bytes"
	"testing"

	"agcm/internal/grid"
)

// FuzzRead exercises the history parser on arbitrary byte streams: it must
// return an error or a valid file, never panic or over-allocate wildly.
func FuzzRead(f *testing.F) {
	// Seed with a valid file and a few mutations.
	spec := grid.Spec{Nlon: 4, Nlat: 4, Nlayers: 1}
	file := &File{Spec: spec, Step: 1}
	data := make([]float64, spec.Points())
	for i := range data {
		data[i] = float64(i)
	}
	if err := file.AddVariable("u", data); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeLegacy(&buf, file, bigEndian); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	mut := append([]byte(nil), good...)
	mut[9] = 0xFF
	f.Add(mut)

	// Frame-encoded seeds: Read dispatches on the magic, so the fuzzer
	// must reach both decode paths.
	goodFrame, err := EncodeFrame(file)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(goodFrame)
	f.Add(goodFrame[:len(goodFrame)/2])
	f.Add(goodFrame[:4]) // bare frame magic
	fmut := append([]byte(nil), goodFrame...)
	fmut[len(fmut)-10] ^= 1 // payload bit flip: CRC must catch it
	f.Add(fmut)

	// The other legacy byte order, so the reversal path has a seed too
	// (added last: the earlier seeds keep their numbers).
	var little bytes.Buffer
	if err := writeLegacy(&little, file, littleEndian); err != nil {
		f.Fatal(err)
	}
	f.Add(little.Bytes())

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
	})
}
