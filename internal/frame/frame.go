// Package frame implements the repo's canonical, offset-indexed,
// random-access binary frame format — the PAOSP-style wire and state
// encoding behind the serving stack's result cache, the disk cache tier,
// and the history/checkpoint files.
//
// A frame is a single contiguous byte string:
//
//	[0:4)        magic "AGCF"
//	[4:6)        u16 version (currently 1)
//	[6:8)        u16 frame type tag (what the payload means; see Type)
//	[8:12)       u32 section count n
//	[12:16)      u32 total frame length, CRC included
//	[16:16+12n)  section table: n entries of {u32 tag, u32 offset, u32 length}
//	...          section payloads, contiguous, in table order
//	[len-4:len)  u32 CRC-32C (Castagnoli) of every preceding byte
//
// All fixed-width scalars are little-endian.  Offsets are absolute from the
// start of the frame, so a reader can slice any one section out of a []byte
// without touching the others — decoding a single field never unpacks the
// whole frame, and replaying a cached frame is one Write of stored bytes.
//
// The layout is canonical: section tags must be strictly increasing, the
// payloads must be gapless and in table order, and every scalar has exactly
// one encoding.  Encoding the same value twice therefore yields identical
// bytes, which is what lets content-addressed caches compare and replay
// frames without ever decoding them.  Parse enforces every canonicality
// rule, so a parsed frame is also proof the bytes are in normal form.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Magic is the 4-byte frame signature.
var magic = [4]byte{'A', 'G', 'C', 'F'}

// Version is the current frame-format version.  Readers reject frames with
// a newer version instead of guessing; adding sections with fresh tags is
// backward compatible and does not bump it.
const Version = 1

// Type tags what a frame's payload means.  Allocated centrally here so two
// subsystems can never collide.
type Type uint16

const (
	// TypeResponse is an agcmd run-response frame (internal/server).
	TypeResponse Type = 1
	// TypeHistory is a history/checkpoint state frame (internal/history).
	TypeHistory Type = 2
)

// Format limits.  The caps bound allocation before any header field is
// trusted; both are far above anything the repo produces.
const (
	// MaxSections caps the section count a frame may declare.
	MaxSections = 1 << 16
	// MaxFrameBytes caps the total length a frame may declare.
	MaxFrameBytes = 1 << 31
)

const (
	headerSize  = 16
	entrySize   = 12
	trailerSize = 4
)

// Decode errors.  Every malformed input maps onto one of these sentinels
// (wrapped with detail), never a panic.
var (
	// ErrTruncated: the buffer ends before the structure it declares.
	ErrTruncated = errors.New("frame: truncated")
	// ErrMagic: the buffer does not begin with the frame signature.
	ErrMagic = errors.New("frame: bad magic")
	// ErrVersion: the frame declares an unsupported format version.
	ErrVersion = errors.New("frame: unsupported version")
	// ErrLayout: the header or section table violates a canonicality rule
	// (tag order, offset contiguity, length accounting).
	ErrLayout = errors.New("frame: non-canonical layout")
	// ErrCRC: the trailer checksum does not match the bytes.
	ErrCRC = errors.New("frame: CRC mismatch")
)

// castagnoli is the CRC-32C table; Castagnoli is hardware-accelerated on
// every platform the daemon runs on, so checking a frame costs a memory
// scan, not allocations.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Builder assembles a frame.  Sections are opened with Begin (tags must be
// strictly increasing) and filled with the typed appenders; Finish seals
// the frame.  A Builder can be Reset and reused, so steady-state encoding
// amortizes to zero allocations.
type Builder struct {
	payload []byte // concatenated section payloads
	tags    []uint32
	ends    []int // payload end offset of each closed-or-open section
	out     []byte
	err     error
}

// Reset clears the builder for a fresh frame, keeping its buffers.
func (b *Builder) Reset() {
	b.payload = b.payload[:0]
	b.tags = b.tags[:0]
	b.ends = b.ends[:0]
	b.out = b.out[:0]
	b.err = nil
}

// Begin opens a new section.  Tags must be strictly increasing within a
// frame — that is what makes the byte layout canonical — so a violation is
// a programming error reported by Finish.
func (b *Builder) Begin(tag uint32) {
	if b.err != nil {
		return
	}
	if n := len(b.tags); n > 0 && tag <= b.tags[n-1] {
		b.err = fmt.Errorf("frame: section tag %d not above predecessor %d", tag, b.tags[n-1])
		return
	}
	if len(b.tags) > 0 {
		b.ends[len(b.ends)-1] = len(b.payload)
	}
	b.tags = append(b.tags, tag)
	b.ends = append(b.ends, len(b.payload))
}

func (b *Builder) open() bool {
	if b.err != nil {
		return false
	}
	if len(b.tags) == 0 {
		b.err = errors.New("frame: append before Begin")
		return false
	}
	return true
}

// Uint32 appends a little-endian u32 to the open section.
func (b *Builder) Uint32(v uint32) {
	if b.open() {
		b.payload = binary.LittleEndian.AppendUint32(b.payload, v)
	}
}

// Uint64 appends a little-endian u64 to the open section.
func (b *Builder) Uint64(v uint64) {
	if b.open() {
		b.payload = binary.LittleEndian.AppendUint64(b.payload, v)
	}
}

// Float64 appends a float64 as its IEEE-754 bit pattern.  The bit pattern
// is the value's one canonical encoding — no text formatting is involved,
// so round-tripping is exact by construction.
func (b *Builder) Float64(v float64) {
	b.Uint64(math.Float64bits(v))
}

// Bytes appends raw bytes to the open section.
func (b *Builder) Bytes(p []byte) {
	if b.open() {
		b.payload = append(b.payload, p...)
	}
}

// LenBytes appends a u32 length prefix followed by the bytes.
func (b *Builder) LenBytes(p []byte) {
	if b.open() {
		if uint64(len(p)) > math.MaxUint32 {
			b.err = fmt.Errorf("frame: byte string of %d exceeds u32 length", len(p))
			return
		}
		b.Uint32(uint32(len(p)))
		b.payload = append(b.payload, p...)
	}
}

// Float64s appends a u32 count prefix followed by each value's bit pattern.
func (b *Builder) Float64s(xs []float64) {
	if !b.open() {
		return
	}
	b.Uint32(uint32(len(xs)))
	for _, v := range xs {
		b.payload = binary.LittleEndian.AppendUint64(b.payload, math.Float64bits(v))
	}
}

// AddSection appends a whole section in one call.
func (b *Builder) AddSection(tag uint32, p []byte) {
	b.Begin(tag)
	b.Bytes(p)
}

// Finish seals the frame and returns its bytes: header, section table,
// payloads, CRC.  The returned slice aliases the builder's internal buffer
// and is invalidated by the next Reset — callers that retain it (caches)
// must copy, callers that write it out immediately need not.
func (b *Builder) Finish(t Type) ([]byte, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.tags) == 0 {
		return nil, errors.New("frame: no sections")
	}
	b.ends[len(b.ends)-1] = len(b.payload)
	n := len(b.tags)
	total := headerSize + entrySize*n + len(b.payload) + trailerSize
	if int64(total) > MaxFrameBytes {
		return nil, fmt.Errorf("frame: %d bytes exceeds MaxFrameBytes", total)
	}
	if cap(b.out) < total {
		b.out = make([]byte, 0, total)
	}
	out := b.out[:0]
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = binary.LittleEndian.AppendUint16(out, uint16(t))
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	out = binary.LittleEndian.AppendUint32(out, uint32(total))
	start := 0
	base := headerSize + entrySize*n
	for i, tag := range b.tags {
		out = binary.LittleEndian.AppendUint32(out, tag)
		out = binary.LittleEndian.AppendUint32(out, uint32(base+start))
		out = binary.LittleEndian.AppendUint32(out, uint32(b.ends[i]-start))
		start = b.ends[i]
	}
	out = append(out, b.payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
	b.out = out
	return out, nil
}

// Frame is a parsed, validated view over a frame's bytes.  It holds no
// decoded state — every accessor slices the underlying buffer — so parsing
// and section access are allocation-free.
type Frame struct {
	buf []byte
	n   int
}

// Parse validates buf as a canonical frame and returns a zero-copy view.
// It checks the magic, version, every section-table invariant (strictly
// increasing tags, contiguous gapless payloads, exact length accounting)
// and the CRC, so corrupted or malicious bytes are rejected here, before
// any section is interpreted.
func Parse(buf []byte) (Frame, error) {
	if len(buf) < headerSize+trailerSize {
		return Frame{}, fmt.Errorf("%w: %d bytes, need at least %d", ErrTruncated, len(buf), headerSize+trailerSize)
	}
	if [4]byte(buf[0:4]) != magic {
		return Frame{}, fmt.Errorf("%w: % x", ErrMagic, buf[0:4])
	}
	if v := binary.LittleEndian.Uint16(buf[4:6]); v != Version {
		return Frame{}, fmt.Errorf("%w: %d", ErrVersion, v)
	}
	n := binary.LittleEndian.Uint32(buf[8:12])
	if n == 0 || n > MaxSections {
		return Frame{}, fmt.Errorf("%w: section count %d", ErrLayout, n)
	}
	total := binary.LittleEndian.Uint32(buf[12:16])
	if total > MaxFrameBytes || int(total) != len(buf) {
		return Frame{}, fmt.Errorf("%w: declared length %d, buffer %d", ErrTruncated, total, len(buf))
	}
	base := headerSize + entrySize*int(n)
	if base+trailerSize > len(buf) {
		return Frame{}, fmt.Errorf("%w: section table overruns frame", ErrTruncated)
	}
	want := binary.LittleEndian.Uint32(buf[len(buf)-trailerSize:])
	if got := crc32.Checksum(buf[:len(buf)-trailerSize], castagnoli); got != want {
		return Frame{}, fmt.Errorf("%w: computed %08x, stored %08x", ErrCRC, got, want)
	}
	// Canonical layout: payloads contiguous from the table's end to the
	// CRC, in strictly increasing tag order.
	next := uint32(base)
	var prevTag uint32
	for i := 0; i < int(n); i++ {
		e := buf[headerSize+entrySize*i:]
		tag := binary.LittleEndian.Uint32(e[0:4])
		off := binary.LittleEndian.Uint32(e[4:8])
		length := binary.LittleEndian.Uint32(e[8:12])
		if i > 0 && tag <= prevTag {
			return Frame{}, fmt.Errorf("%w: tag %d after %d", ErrLayout, tag, prevTag)
		}
		prevTag = tag
		if off != next {
			return Frame{}, fmt.Errorf("%w: section %d at offset %d, want %d", ErrLayout, tag, off, next)
		}
		if length > total-trailerSize || off > total-trailerSize-length {
			return Frame{}, fmt.Errorf("%w: section %d overruns frame", ErrLayout, tag)
		}
		next = off + length
	}
	if int(next) != len(buf)-trailerSize {
		return Frame{}, fmt.Errorf("%w: %d payload bytes unaccounted for", ErrLayout, len(buf)-trailerSize-int(next))
	}
	return Frame{buf: buf, n: int(n)}, nil
}

// Type returns the frame's type tag.
func (f Frame) Type() Type {
	return Type(binary.LittleEndian.Uint16(f.buf[6:8]))
}

// Sections returns the number of sections.
func (f Frame) Sections() int { return f.n }

// Bytes returns the frame's full underlying byte string (for replaying the
// frame itself, e.g. writing it to a socket or disk).
func (f Frame) Bytes() []byte { return f.buf }

// entry returns the i-th table entry's tag, offset, and length.
func (f Frame) entry(i int) (tag, off, length uint32) {
	e := f.buf[headerSize+entrySize*i:]
	return binary.LittleEndian.Uint32(e[0:4]),
		binary.LittleEndian.Uint32(e[4:8]),
		binary.LittleEndian.Uint32(e[8:12])
}

// TagAt returns the i-th section's tag, in table (= ascending) order.
func (f Frame) TagAt(i int) uint32 {
	tag, _, _ := f.entry(i)
	return tag
}

// Section returns the payload of the section with the given tag as a
// zero-copy subslice, or (nil, false).  Binary search over the sorted
// table: random access to one field of a large frame costs O(log n) reads
// and no allocation.
func (f Frame) Section(tag uint32) ([]byte, bool) {
	lo, hi := 0, f.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		t, off, length := f.entry(mid)
		switch {
		case t == tag:
			return f.buf[off : off+length : off+length], true
		case t < tag:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return nil, false
}

// Cursor reads scalars sequentially out of a section payload.  It is a
// value type with a sticky error: read past the end and every subsequent
// read returns zero, with Err reporting the overrun — so decoders can read
// a whole section and check the error once.
type Cursor struct {
	b      []byte
	off    int
	failed bool
}

// NewCursor returns a cursor over a section payload.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

func (c *Cursor) take(n int) []byte {
	if c.failed || n < 0 || len(c.b)-c.off < n {
		c.failed = true
		return nil
	}
	p := c.b[c.off : c.off+n : c.off+n]
	c.off += n
	return p
}

// Uint32 reads a little-endian u32.
func (c *Cursor) Uint32() uint32 {
	p := c.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// Uint64 reads a little-endian u64.
func (c *Cursor) Uint64() uint64 {
	p := c.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// Float64 reads an IEEE-754 bit pattern.
func (c *Cursor) Float64() float64 {
	return math.Float64frombits(c.Uint64())
}

// Bytes reads n raw bytes as a zero-copy subslice.
func (c *Cursor) Bytes(n int) []byte { return c.take(n) }

// LenBytes reads a u32 length prefix and that many bytes, zero-copy.
func (c *Cursor) LenBytes() []byte {
	n := c.Uint32()
	return c.take(int(n))
}

// Float64s reads a u32 count prefix and that many values, appending to dst
// (pass a reused buffer for allocation-free decoding).
func (c *Cursor) Float64s(dst []float64) []float64 {
	n := int(c.Uint32())
	p := c.take(8 * n)
	if p == nil {
		return dst
	}
	for i := 0; i < n; i++ {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:])))
	}
	return dst
}

// Remaining returns how many unread bytes the cursor has.
func (c *Cursor) Remaining() int {
	if c.failed {
		return 0
	}
	return len(c.b) - c.off
}

// Err reports whether any read overran the section.
func (c *Cursor) Err() error {
	if c.failed {
		return fmt.Errorf("%w: section read past %d bytes", ErrTruncated, len(c.b))
	}
	return nil
}
