package history

import (
	"fmt"
	"io"

	"agcm/internal/frame"
	"agcm/internal/grid"
)

// A history file is a frame.TypeHistory frame:
//
//	section 1       meta: u32 nlon, u32 nlat, u32 nlayers, u64 step,
//	                u32 variable count
//	section 2       names: one length-prefixed string per variable,
//	                in variable order
//	section 0x100+i variable i's data: u32 count + IEEE-754 bit patterns
//
// The frame's CRC catches a corrupted checkpoint before any value is
// trusted, and its byte order is part of the format, not of the writer.
const (
	histSecMeta    = 1
	histSecNames   = 2
	histSecVarBase = 0x100
)

// checkHeader is the one statement of which headers are a history file's:
// EncodeFrame refuses what decodeFrame would, so every file written loads.
// The caps bound allocation before a declared size is trusted; the largest
// plausible history grid is far below them.
func checkHeader(spec grid.Spec, step, nvars int) error {
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("history: %w", err)
	}
	if spec.Nlon > 1<<16 || spec.Nlat > 1<<16 || spec.Nlayers > 1<<12 {
		return fmt.Errorf("history: implausible grid %dx%dx%d", spec.Nlon, spec.Nlat, spec.Nlayers)
	}
	if step < 0 {
		return fmt.Errorf("history: negative step %d", step)
	}
	if nvars < 0 || nvars > 1<<10 {
		return fmt.Errorf("history: implausible variable count %d", nvars)
	}
	return nil
}

// EncodeFrame serializes a history file as a canonical frame.  Identical
// files encode to identical bytes (the format has one encoding per value),
// so checkpoint bytes are content-addressable like everything else built
// on frames.
func EncodeFrame(f *File) ([]byte, error) {
	if len(f.Names) != len(f.Data) {
		return nil, fmt.Errorf("history: %d names but %d variables", len(f.Names), len(f.Data))
	}
	if err := checkHeader(f.Spec, f.Step, len(f.Names)); err != nil {
		return nil, err
	}
	var b frame.Builder
	b.Begin(histSecMeta)
	b.Uint32(uint32(f.Spec.Nlon))
	b.Uint32(uint32(f.Spec.Nlat))
	b.Uint32(uint32(f.Spec.Nlayers))
	b.Uint64(uint64(f.Step))
	b.Uint32(uint32(len(f.Names)))
	b.Begin(histSecNames)
	for i, name := range f.Names {
		if len(name) > 255 {
			return nil, fmt.Errorf("history: variable name %q too long", name)
		}
		if len(f.Data[i]) != f.Spec.Points() {
			return nil, fmt.Errorf("history: variable %q has %d values, want %d",
				name, len(f.Data[i]), f.Spec.Points())
		}
		b.LenBytes([]byte(name))
	}
	for i, data := range f.Data {
		b.Begin(histSecVarBase + uint32(i))
		b.Float64s(data)
	}
	raw, err := b.Finish(frame.TypeHistory)
	if err != nil {
		return nil, err
	}
	// Finish aliases the builder's buffer; the builder dies here, but copy
	// anyway so the contract ("returned bytes are yours") is unconditional.
	return append([]byte(nil), raw...), nil
}

// WriteFrame writes f's frame encoding to w.
func WriteFrame(w io.Writer, f *File) error {
	raw, err := EncodeFrame(f)
	if err != nil {
		return err
	}
	if _, err := w.Write(raw); err != nil {
		return fmt.Errorf("history: writing frame: %w", err)
	}
	return nil
}

// decodeFrame rebuilds a File from frame bytes.
func decodeFrame(buf []byte) (*File, error) {
	fr, err := frame.Parse(buf)
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	if fr.Type() != frame.TypeHistory {
		return nil, fmt.Errorf("history: frame type %d is not a history frame", fr.Type())
	}
	meta, ok := fr.Section(histSecMeta)
	if !ok {
		return nil, fmt.Errorf("history: frame has no meta section")
	}
	c := frame.NewCursor(meta)
	f := &File{
		Spec: grid.Spec{
			Nlon:    int(c.Uint32()),
			Nlat:    int(c.Uint32()),
			Nlayers: int(c.Uint32()),
		},
		Step: int(c.Uint64()),
	}
	nvars := int(c.Uint32())
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("history: meta section: %w", err)
	}
	if err := checkHeader(f.Spec, f.Step, nvars); err != nil {
		return nil, err
	}
	names, ok := fr.Section(histSecNames)
	if !ok {
		return nil, fmt.Errorf("history: frame has no names section")
	}
	nc := frame.NewCursor(names)
	for i := 0; i < nvars; i++ {
		nb := nc.LenBytes()
		if nc.Err() != nil || len(nb) > 255 {
			return nil, fmt.Errorf("history: malformed names section")
		}
		f.Names = append(f.Names, string(nb))
	}
	if nc.Remaining() != 0 {
		return nil, fmt.Errorf("history: %d trailing bytes in names section", nc.Remaining())
	}
	points := f.Spec.Points()
	for i, name := range f.Names {
		// The section's own length is checked before anything is sized
		// from the header's grid.
		sec, _ := fr.Section(histSecVarBase + uint32(i))
		if len(sec) != 4+8*points {
			return nil, fmt.Errorf("history: variable %q: section of %d bytes, want %d", name, len(sec), 4+8*points)
		}
		dc := frame.NewCursor(sec)
		data := dc.Float64s(make([]float64, 0, points))
		if len(data) != points {
			return nil, fmt.Errorf("history: variable %q has %d values, want %d", name, len(data), points)
		}
		f.Data = append(f.Data, data)
	}
	return f, nil
}
