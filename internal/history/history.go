// Package history implements the AGCM's history/restart file IO.  The
// original code read a NetCDF history file; porting it to the Intel Paragon
// required a byte-order reversal routine because no NetCDF library was
// available there (Section 4).  Here a history file is a frame (frame.go),
// whose byte order is fixed by the format, so that portability problem
// cannot recur; ReverseBytes remains as the paper's routine.
package history

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"agcm/internal/grid"
)

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

// Read deserializes a history file: one history frame, CRC-checked before
// any value is trusted.  The stream format that preceded frames is named
// in the error rather than decoded.
func Read(r io.Reader) (*File, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("history: reading: %w", err)
	}
	if bytes.HasPrefix(buf, []byte("AGMH")) {
		return nil, errors.New(`history: this is the retired "AGMH" stream format, not a frame; ` +
			`to convert it, load it and save it again with a build that still reads it (PR 22 or earlier)`)
	}
	return decodeFrame(buf)
}

// ReverseBytes reverses the byte order of every 8-byte word in place — the
// raw conversion routine for repairing a payload read with the wrong
// endianness assumption.
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
