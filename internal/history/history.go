// Package history implements the AGCM's history/restart file IO.  The
// original code read a NetCDF history file; porting it to the Intel Paragon
// required a byte-order reversal routine because no NetCDF library was
// available there (Section 4).  This package reproduces that code path with
// a self-describing binary format whose on-disk byte order is explicit, plus
// the byte-order reversal routine for foreign-endian files.  That "AGMH"
// stream format is read-only here: files are written as frames (frame.go).
package history

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"agcm/internal/frame"
	"agcm/internal/grid"
)

// Magic identifies a history file.
const Magic = 0x41474D48 // "AGMH"

// Version is the current format version.
const Version = 1

// File is an in-memory history record: the full global state of every
// stored variable at one instant.
type File struct {
	Spec grid.Spec
	// Step is the time-step index the record was taken at.
	Step int
	// Names and Data hold the variables; Data[i] is flattened
	// [Nlat][Nlon][Nlayers] like grid.Gather's output.
	Names []string
	Data  [][]float64
}

// AddVariable appends a variable; the data length must match the spec.
func (f *File) AddVariable(name string, data []float64) error {
	if len(data) != f.Spec.Points() {
		return fmt.Errorf("history: variable %q has %d values, want %d",
			name, len(data), f.Spec.Points())
	}
	f.Names = append(f.Names, name)
	f.Data = append(f.Data, data)
	return nil
}

// Variable returns the named variable's data, or an error.
func (f *File) Variable(name string) ([]float64, error) {
	for i, n := range f.Names {
		if n == name {
			return f.Data[i], nil
		}
	}
	return nil, fmt.Errorf("history: no variable %q", name)
}

// byteOrder is the legacy header's payload-endianness flag.
type byteOrder int

const (
	// bigEndian is the canonical history byte order (the workstation
	// side in the paper's anecdote).
	bigEndian byteOrder = iota
	// littleEndian matches the Paragon's native order.
	littleEndian
)

func (b byteOrder) order() binary.ByteOrder {
	if b == bigEndian {
		return binary.BigEndian
	}
	return binary.LittleEndian
}

// Read deserializes a history file in either supported encoding.  It
// sniffs the 4-byte magic: "AGCF" selects the frame encoding (the current
// checkpoint format), "AGMH" the legacy stream format, transparently
// applying the byte-order reversal when the legacy payload order differs
// from what the caller's platform would have written — the routine the
// paper's authors had to add for the Paragon port.  Checkpoints written
// before the frame migration therefore still load.
func Read(r io.Reader) (*File, error) {
	var first [4]byte
	if _, err := io.ReadFull(r, first[:]); err != nil {
		return nil, fmt.Errorf("history: reading header: %w", err)
	}
	if frame.IsFrame(first[:]) {
		rest, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("history: reading frame: %w", err)
		}
		return decodeFrame(append(first[:], rest...))
	}
	return readLegacy(first, r)
}

// readLegacy deserializes the pre-frame "AGMH" stream format, whose first
// four bytes have already been consumed as the magic sniff.
func readLegacy(first [4]byte, r io.Reader) (*File, error) {
	hdr := make([]uint32, 8)
	hdr[0] = binary.BigEndian.Uint32(first[:])
	if err := binary.Read(r, binary.BigEndian, hdr[1:]); err != nil {
		return nil, fmt.Errorf("history: reading header: %w", err)
	}
	if hdr[0] != Magic {
		return nil, fmt.Errorf("history: bad magic %#x", hdr[0])
	}
	if hdr[1] != Version {
		return nil, fmt.Errorf("history: unsupported version %d", hdr[1])
	}
	bo := byteOrder(hdr[2])
	if bo != bigEndian && bo != littleEndian {
		return nil, fmt.Errorf("history: bad byte-order flag %d", hdr[2])
	}
	f := &File{
		Spec: grid.Spec{Nlon: int(hdr[3]), Nlat: int(hdr[4]), Nlayers: int(hdr[5])},
		Step: int(hdr[6]),
	}
	if err := f.Spec.Validate(); err != nil {
		return nil, err
	}
	// Bound allocations before trusting header-declared sizes: the
	// largest plausible history grid is far below these caps.
	if f.Spec.Nlon > 1<<16 || f.Spec.Nlat > 1<<16 || f.Spec.Nlayers > 1<<12 {
		return nil, fmt.Errorf("history: implausible grid %dx%dx%d",
			f.Spec.Nlon, f.Spec.Nlat, f.Spec.Nlayers)
	}
	nvars := int(hdr[7])
	if nvars > 1<<10 {
		return nil, fmt.Errorf("history: implausible variable count %d", nvars)
	}
	ord := bo.order()
	for v := 0; v < nvars; v++ {
		var nameLen uint32
		if err := binary.Read(r, binary.BigEndian, &nameLen); err != nil {
			return nil, err
		}
		if nameLen > 255 { // neither writer produces longer names
			return nil, fmt.Errorf("history: implausible name length %d", nameLen)
		}
		nb := make([]byte, nameLen)
		if _, err := io.ReadFull(r, nb); err != nil {
			return nil, err
		}
		buf := make([]byte, 8*f.Spec.Points())
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("history: reading %q: %w", nb, err)
		}
		data := make([]float64, f.Spec.Points())
		for j := range data {
			data[j] = math.Float64frombits(ord.Uint64(buf[8*j:]))
		}
		f.Names = append(f.Names, string(nb))
		f.Data = append(f.Data, data)
	}
	return f, nil
}

// ReverseBytes reverses the byte order of every 8-byte word in place — the
// raw conversion routine for repairing a history payload read with the
// wrong endianness assumption.
func ReverseBytes(buf []byte) error {
	if len(buf)%8 != 0 {
		return fmt.Errorf("history: buffer length %d not a multiple of 8", len(buf))
	}
	for off := 0; off < len(buf); off += 8 {
		for a, b := off, off+7; a < b; a, b = a+1, b-1 {
			buf[a], buf[b] = buf[b], buf[a]
		}
	}
	return nil
}
