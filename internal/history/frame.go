package history

import (
	"fmt"
	"io"

	"agcm/internal/frame"
	"agcm/internal/grid"
)

// Frame-backed history encoding.  A checkpoint is a frame.TypeHistory frame:
//
//	section 1       meta: u32 nlon, u32 nlat, u32 nlayers, u64 step,
//	                u32 variable count
//	section 2       names: one length-prefixed string per variable,
//	                in variable order
//	section 0x100+i variable i's data: u32 count + IEEE-754 bit patterns
//
// Giving every variable its own section is what buys random access: a
// reader can pull one field out of a multi-megabyte checkpoint by slicing
// a single section — FrameVariable — without decoding the rest, and the
// CRC catches a corrupted checkpoint before any value is trusted.  The
// legacy "AGMH" stream format remains readable (Read sniffs the magic),
// so checkpoints written before the frame migration still load.
const (
	histSecMeta    = 1
	histSecNames   = 2
	histSecVarBase = 0x100
)

// maxVars matches the legacy reader's variable-count plausibility cap.
const maxVars = 1 << 10

// EncodeFrame serializes a history file as a canonical frame.  Identical
// files encode to identical bytes (the format has one encoding per value),
// so checkpoint bytes are content-addressable like everything else built
// on frames.
func EncodeFrame(f *File) ([]byte, error) {
	if len(f.Names) != len(f.Data) {
		return nil, fmt.Errorf("history: %d names but %d variables", len(f.Names), len(f.Data))
	}
	if len(f.Names) > maxVars {
		return nil, fmt.Errorf("history: %d variables exceeds cap %d", len(f.Names), maxVars)
	}
	if f.Step < 0 {
		return nil, fmt.Errorf("history: negative step %d", f.Step)
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

// WriteFrame serializes f in the frame encoding, the only form this package
// writes; the legacy stream form is read-only (Read).
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
	if err := f.Spec.Validate(); err != nil {
		return nil, err
	}
	if f.Spec.Nlon > 1<<16 || f.Spec.Nlat > 1<<16 || f.Spec.Nlayers > 1<<12 {
		return nil, fmt.Errorf("history: implausible grid %dx%dx%d",
			f.Spec.Nlon, f.Spec.Nlat, f.Spec.Nlayers)
	}
	if nvars < 0 || nvars > maxVars {
		return nil, fmt.Errorf("history: implausible variable count %d", nvars)
	}
	names, err := frameNames(fr, nvars)
	if err != nil {
		return nil, err
	}
	f.Names = names
	for i := 0; i < nvars; i++ {
		data, err := frameData(fr, f.Spec, i)
		if err != nil {
			return nil, fmt.Errorf("history: variable %q: %w", names[i], err)
		}
		f.Data = append(f.Data, data)
	}
	return f, nil
}

// frameNames decodes the names section.
func frameNames(fr frame.Frame, nvars int) ([]string, error) {
	sec, ok := fr.Section(histSecNames)
	if !ok {
		return nil, fmt.Errorf("history: frame has no names section")
	}
	c := frame.NewCursor(sec)
	names := make([]string, nvars)
	for i := range names {
		nb := c.LenBytes()
		if c.Err() != nil || len(nb) > 255 {
			return nil, fmt.Errorf("history: malformed names section")
		}
		names[i] = string(nb)
	}
	if c.Remaining() != 0 {
		return nil, fmt.Errorf("history: %d trailing bytes in names section", c.Remaining())
	}
	return names, nil
}

// frameData decodes variable i's section.
func frameData(fr frame.Frame, spec grid.Spec, i int) ([]float64, error) {
	sec, ok := fr.Section(histSecVarBase + uint32(i))
	if !ok {
		return nil, fmt.Errorf("history: frame has no section for variable %d", i)
	}
	c := frame.NewCursor(sec)
	data := c.Float64s(make([]float64, 0, spec.Points()))
	if err := c.Err(); err != nil {
		return nil, err
	}
	if len(data) != spec.Points() {
		return nil, fmt.Errorf("history: %d values, want %d", len(data), spec.Points())
	}
	return data, nil
}

// FrameVariable extracts one named variable from an encoded history frame
// without decoding any other variable — the offset-indexed random access
// the frame layout exists for.  buf must be a complete history frame.
func FrameVariable(buf []byte, name string) ([]float64, error) {
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
	spec := grid.Spec{
		Nlon:    int(c.Uint32()),
		Nlat:    int(c.Uint32()),
		Nlayers: int(c.Uint32()),
	}
	_ = c.Uint64() // step
	nvars := int(c.Uint32())
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("history: meta section: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if nvars < 0 || nvars > maxVars {
		return nil, fmt.Errorf("history: implausible variable count %d", nvars)
	}
	names, err := frameNames(fr, nvars)
	if err != nil {
		return nil, err
	}
	for i, n := range names {
		if n == name {
			return frameData(fr, spec, i)
		}
	}
	return nil, fmt.Errorf("history: no variable %q", name)
}
