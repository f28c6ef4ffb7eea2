package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"agcm/internal/frame"
)

// TestFrameContentNegotiation: a client sending Accept:
// application/x-agcm-frame receives the raw response frame — on the miss
// path and the hit path alike — whose one section is byte-identical to
// what a plain JSON client gets.
func TestFrameContentNegotiation(t *testing.T) {
	s := mustNew(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	body := reqJSON([2]int{1, 2}, "fft", 1)

	// Miss path, frame client.
	req, err := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", FrameContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rawFrame, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("frame request: status %d err %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != FrameContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, FrameContentType)
	}

	// Hit path, JSON client: the embedded section must be these bytes.
	st, h, jsonBody := postRun(t, ts.URL, body)
	if st != 200 {
		t.Fatalf("json request: status %d: %s", st, jsonBody)
	}
	if got := h.Get("X-Agcmd-Cache"); got != "hit" {
		t.Fatalf("disposition %q, want hit", got)
	}
	emb, err := JSONBody(rawFrame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(emb, jsonBody) {
		t.Fatalf("embedded JSON section differs from JSON wire body:\n frame: %s\n json:  %s", emb, jsonBody)
	}

	if fr, err := frame.Parse(rawFrame); err != nil || fr.Type() != frame.TypeResponse || fr.Sections() != 1 {
		t.Fatalf("response frame: err %v, want one section of type response", err)
	}

	// Frame client on the hit path gets byte-identical frame bytes.
	req2, _ := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(body))
	req2.Header.Set("Accept", FrameContentType)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	rawFrame2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !bytes.Equal(rawFrame, rawFrame2) {
		t.Fatal("hit-path frame differs from miss-path frame")
	}
	if runs := s.Runs(); runs != 1 {
		t.Fatalf("Runs() = %d, want 1", runs)
	}
}

// TestDiskTierWarmRestart: a daemon killed and restarted over the same
// cache directory serves byte-identical bodies from the disk tier without
// re-running anything — the warm-restart property the gateway-visible
// drill in the cluster suite asserts end to end.
func TestDiskTierWarmRestart(t *testing.T) {
	dir := t.TempDir()
	body := reqJSON([2]int{1, 2}, "fft", 2)

	s1 := mustNew(t, Options{Workers: 1, CacheDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	st, _, b1 := postRun(t, ts1.URL, body)
	if st != 200 {
		t.Fatalf("seed run: status %d: %s", st, b1)
	}
	ts1.Close()
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The "restarted" daemon: same directory, empty memory tier.
	s2 := mustNew(t, Options{Workers: 1, CacheDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Drain(context.Background())

	st2, h2, b2 := postRun(t, ts2.URL, body)
	if st2 != 200 {
		t.Fatalf("warm-restart run: status %d: %s", st2, b2)
	}
	if got := h2.Get("X-Agcmd-Cache"); got != "disk-hit" {
		t.Fatalf("disposition %q, want disk-hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("warm restart served different bytes")
	}
	if runs := s2.Runs(); runs != 0 {
		t.Fatalf("Runs() = %d after restart, want 0 (disk must answer)", runs)
	}
	if got := s2.metrics.requests.Get("disk_hit"); got != 1 {
		t.Fatalf("disk_hit = %d, want 1", got)
	}

	// The disk hit promoted the frame into memory: next request is a plain
	// hit.
	st3, h3, b3 := postRun(t, ts2.URL, body)
	if st3 != 200 || h3.Get("X-Agcmd-Cache") != "hit" || !bytes.Equal(b1, b3) {
		t.Fatalf("post-promotion request: status %d disposition %q", st3, h3.Get("X-Agcmd-Cache"))
	}

	// A third cold daemon answers peeks straight from disk too — the
	// gateway's degraded path survives the restart.
	var wire struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(b1, &wire); err != nil || wire.Key == "" {
		t.Fatalf("response has no key: %v", err)
	}
	s3 := mustNew(t, Options{Workers: 1, CacheDir: dir})
	defer s3.Drain(context.Background())
	rec := httptest.NewRecorder()
	s3.handleCachePeek(rec, httptest.NewRequest("GET", "/v1/cache/"+wire.Key, nil))
	if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), b1) {
		t.Fatalf("cold peek: status %d", rec.Code)
	}
	if got := rec.Header().Get("X-Agcmd-Cache"); got != "peek-disk" {
		t.Fatalf("cold peek disposition %q, want peek-disk", got)
	}
	if s3.Runs() != 0 {
		t.Fatal("peek ran a simulation")
	}
}

// countingWriter is a ResponseWriter that counts Write calls — the
// single-write audit's instrument.
type countingWriter struct {
	h      http.Header
	status int
	writes int
	last   []byte
}

func (w *countingWriter) Header() http.Header         { return w.h }
func (w *countingWriter) WriteHeader(c int)           { w.status = c }
func (w *countingWriter) Write(p []byte) (int, error) { w.writes++; w.last = p; return len(p), nil }

// TestCacheHitSingleWriteAndAllocBudget audits the hot replay paths: a
// cache hit is exactly one ResponseWriter.Write of the stored bytes (no
// re-marshal, no copies), and serving a peek hit into a reused header map
// allocates nothing — the header values are shared slices and the frame
// machinery is allocation-free.
func TestCacheHitSingleWriteAndAllocBudget(t *testing.T) {
	s := mustNew(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	body := reqJSON([2]int{1, 2}, "fft", 1)
	st, _, jsonBody := postRun(t, ts.URL, body)
	if st != 200 {
		t.Fatalf("seed run: %d %s", st, jsonBody)
	}
	var wire struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(jsonBody, &wire); err != nil || wire.Key == "" {
		t.Fatalf("response has no key: %v", err)
	}

	// Full /v1/run hit path: one Write, the stored bytes.
	cw := &countingWriter{h: make(http.Header)}
	s.handleRun(cw, httptest.NewRequest("POST", "/v1/run", strings.NewReader(body)))
	if cw.status != 200 || cw.writes != 1 {
		t.Fatalf("hit path: status %d writes %d, want 200/1", cw.status, cw.writes)
	}
	if !bytes.Equal(cw.last, jsonBody) {
		t.Fatal("hit path wrote different bytes than the original response")
	}

	// Peek hit path, steady state: no allocation per served hit.
	preq := httptest.NewRequest("GET", "/v1/cache/"+wire.Key, nil)
	bad := false
	allocs := testing.AllocsPerRun(200, func() {
		cw.writes = 0
		s.handleCachePeek(cw, preq)
		if cw.status != 200 || cw.writes != 1 {
			bad = true
		}
	})
	if bad {
		t.Fatal("peek hit did not produce exactly one 200 write")
	}
	if allocs > 0 {
		t.Fatalf("peek hit allocates %v times per serve, want 0", allocs)
	}
}

// TestDiskTierServesFiveSectionFrames: response frames written before the
// body became the only section (key, steps, config and a binary report
// beside it) are in -cache-dirs already; the body is still tag 1, so they
// serve byte-identically in both Accept modes.
func TestDiskTierServesFiveSectionFrames(t *testing.T) {
	dir := t.TempDir()
	key := strings.Repeat("5", 64)
	jsonBody := []byte(`{"key":"` + key + `","steps":1,"config":{},"report":{"ranks":2}}` + "\n")
	var b frame.Builder
	b.AddSection(1, jsonBody)
	b.AddSection(2, []byte(key))
	b.Begin(3)
	b.Uint32(1)
	b.AddSection(4, []byte(`{}`))
	b.Begin(5)
	b.Uint32(2)
	b.Float64s([]float64{1, 2})
	old, err := b.Finish(frame.TypeResponse)
	if err != nil {
		t.Fatal(err)
	}
	st, err := frame.OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, old); err != nil {
		t.Fatal(err)
	}

	s := mustNew(t, Options{Workers: 1, CacheDir: dir})
	defer s.Drain(context.Background())
	for accept, want := range map[string][]byte{"application/json": jsonBody, FrameContentType: old} {
		req := httptest.NewRequest("GET", "/v1/cache/"+key, nil)
		req.Header.Set("Accept", accept)
		rec := httptest.NewRecorder()
		s.handleCachePeek(rec, req)
		if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("Accept %s: status %d, body differs from the stored bytes", accept, rec.Code)
		}
	}
	if s.Runs() != 0 {
		t.Fatal("serving a stored frame ran a simulation")
	}
}

// TestDiskTierRejectsUnknownKeys: disk fallthrough never touches the
// filesystem for a key that is not a well-formed content address.
func TestDiskTierRejectsUnknownKeys(t *testing.T) {
	s := mustNew(t, Options{Workers: 1, CacheDir: t.TempDir()})
	defer s.Drain(context.Background())
	for _, key := range []string{"..%2f..%2fetc", "short", strings.Repeat("Z", 64)} {
		rec := httptest.NewRecorder()
		s.handleCachePeek(rec, httptest.NewRequest("GET", "/v1/cache/"+key, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("peek %q: status %d, want 404", key, rec.Code)
		}
	}
}

// TestFrameStoreRefusesNonFrames guards the server/store contract: the
// disk tier only ever holds parseable frames, so anything Get returns is
// servable as-is.
func TestFrameStoreRefusesNonFrames(t *testing.T) {
	st, err := frame.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(strings.Repeat("a", 64), []byte(`{"not":"a frame"}`)); err == nil {
		t.Fatal("store accepted raw JSON bytes")
	}
}

func BenchmarkCacheHit(b *testing.B) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := reqJSON([2]int{1, 2}, "fft", 1)
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var wire struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(raw, &wire); err != nil {
		b.Fatal(err)
	}
	cw := &countingWriter{h: make(http.Header)}
	preq := httptest.NewRequest("GET", "/v1/cache/"+wire.Key, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.handleCachePeek(cw, preq)
	}
}
