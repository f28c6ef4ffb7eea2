package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
)

// MaxBodyBytes bounds a POST /v1/run body at agcmd, and at agcmgw unless its
// Options.MaxBodyBytes says otherwise.
const MaxBodyBytes = 1 << 20

// TooLargeError reports a body longer than the limit it was read under: the
// client's error, answered with 413.
type TooLargeError struct{ Limit int64 }

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("request body exceeds %d bytes", e.Limit)
}

// Body is a request or response body read whole into a pooled buffer.  Its
// bytes are valid until Release, which hands the buffer to the next read.
type Body struct {
	buf bytes.Buffer
	lr  io.LimitedReader
}

// maxPooledBody is the largest buffer Release keeps: one oversized body must
// not pin its buffer in the pool.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new(Body) }}

// ReadBody reads r to its end into a pooled Body.  It reads at most limit+1
// bytes: a longer body is a *TooLargeError, never a silently truncated one.
// A negative limit reads without one.
func ReadBody(r io.Reader, limit int64) (*Body, error) {
	b := bodyPool.Get().(*Body)
	b.buf.Reset()
	b.lr = io.LimitedReader{R: r, N: limit + 1}
	if limit < 0 {
		b.lr.N = math.MaxInt64
	}
	_, err := b.buf.ReadFrom(&b.lr)
	b.lr.R = nil
	if err != nil {
		err = fmt.Errorf("reading body: %w", err)
	} else if limit >= 0 && int64(b.buf.Len()) > limit {
		err = &TooLargeError{Limit: limit}
	}
	if err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

// Bytes returns the body; the slice is valid until Release.
func (b *Body) Bytes() []byte { return b.buf.Bytes() }

// Release returns the buffer to the pool; nil is a no-op.
func (b *Body) Release() {
	if b != nil && b.buf.Cap() <= maxPooledBody {
		bodyPool.Put(b)
	}
}

// The memo's budget: memoEntries bodies, none of whose body, canonical
// config and job key together exceed memoEntryBytes, so it never holds more
// than memoEntries × memoEntryBytes = 1 MiB of them.  A larger body is
// decoded on every request, as without a memo.
const (
	memoEntries    = 512
	memoEntryBytes = 2 << 10
)

// Memo remembers accepted POST /v1/run bodies: for the exact body bytes, the
// Request DecodeRequest derived from them.  A hit skips the JSON parses, the
// machine lookup, the canonical encoding and both hashes — everything that
// is a pure function of the bytes — and still resolves the SLO class against
// its own header, so the same body sent under a different X-Agcm-SLO keeps
// that header's meaning.  Rejected bodies are never stored.
//
// Each daemon owns its memo (Server and Gateway build one each): a memo
// shared by a gateway and a server in one process would let the server hit
// on the gateway's decode.  Eviction is CLOCK over a fixed ring of slots: a
// hit sets its slot's reference bit, an insert advances the hand past (and
// clears) referenced slots and reuses the first unreferenced one.  Neither a
// hit nor eviction allocates.
type Memo struct {
	mu    sync.Mutex
	index map[string]int // body → slot
	slots []memoSlot
	hand  int
}

type memoSlot struct {
	body string // "" while the slot is free
	req  Request
	used bool // hit since the hand last passed
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{index: make(map[string]int, memoEntries), slots: make([]memoSlot, memoEntries)}
}

// Read reads a POST /v1/run body of at most limit bytes (ReadBody) into a
// pooled buffer and decodes it through the memo.  It also returns the body
// as an immutable string — the memo's own copy when it holds the body — for
// a caller that forwards it.
func (m *Memo) Read(r io.Reader, limit int64, header http.Header) (*Request, string, error) {
	body, err := ReadBody(r, limit)
	if err != nil {
		return nil, "", err
	}
	defer body.Release()
	return m.decode(body.Bytes(), header)
}

// decode is DecodeRequest of a whole body, through the memo.
func (m *Memo) decode(body []byte, header http.Header) (*Request, string, error) {
	if req, raw, ok := m.get(body); ok {
		var err error
		if req.Class, err = classFor(req.bodySLO, header); err != nil {
			return nil, "", err
		}
		return req, raw, nil
	}
	req, err := DecodeRequest(bytes.NewReader(body), header)
	if err != nil {
		return nil, "", err
	}
	raw := string(body)
	if len(raw)+len(req.Canonical)+len(req.Key) <= memoEntryBytes {
		m.insert(raw, req)
	}
	return req, raw, nil
}

// get returns a copy of the Request stored for body and marks its slot
// referenced.  The lookup converts body to a string without allocating.
func (m *Memo) get(body []byte) (*Request, string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.index[string(body)]
	if !ok {
		return nil, "", false
	}
	s := &m.slots[i]
	s.used = true
	req := s.req
	return &req, s.body, true
}

// insert stores req under body, evicting by CLOCK when the ring is full.
func (m *Memo) insert(body string, req *Request) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.index[body]; ok {
		return // a concurrent miss on the same body stored it first
	}
	for {
		i, s := m.hand, &m.slots[m.hand]
		m.hand = (m.hand + 1) % len(m.slots)
		if s.used {
			s.used = false
			continue
		}
		if s.body != "" {
			delete(m.index, s.body)
		}
		*s = memoSlot{body: body, req: *req}
		m.index[body] = i
		return
	}
}

// Len returns the number of bodies held.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.index)
}
