package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"agcm/internal/core"
	"agcm/internal/machine"
)

// TestJobKeyMatchesFormula: jobKey hashes stack buffers, and its keys stay
// byte-identical to the formula disk-tier frames are addressed by —
// hex(sha256(hex(sha256(canonical)) + ":" + steps)) — over canonical
// configs of every machine and filter and step counts up to both int64
// extremes; one allocation per key, the returned string.
func TestJobKeyMatchesFormula(t *testing.T) {
	var canonicals [][]byte
	for _, m := range []string{"paragon", "t3d", "sp2", "host"} {
		for _, filter := range []core.FilterVariant{core.FilterFFT, core.FilterConvolutionRing, core.FilterNone} {
			mm, err := machine.ByName(m)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Config{Machine: mm, MeshPy: 2, MeshPx: 3, Filter: filter}
			cfg.Spec.Nlon, cfg.Spec.Nlat, cfg.Spec.Nlayers = 36, 24, 3
			c, err := cfg.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			canonicals = append(canonicals, c)
		}
	}
	canonicals = append(canonicals, nil, []byte("{}"))
	steps := []int{math.MinInt, -1, 0, 1, 2, 9, 10, 99, 100, 12345, 1 << (strconv.IntSize/2 - 1), math.MaxInt}
	for _, c := range canonicals {
		for _, n := range steps {
			ck := sha256.Sum256(c)
			sum := sha256.Sum256([]byte(hex.EncodeToString(ck[:]) + ":" + strconv.Itoa(n)))
			if got, want := jobKey(c, n), hex.EncodeToString(sum[:]); got != want {
				t.Fatalf("jobKey(%s, %d) = %s, want %s", c, n, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { jobKey(canonicals[0], math.MinInt) }); allocs != 1 {
		t.Fatalf("jobKey allocates %v times, want 1", allocs)
	}
}

// TestReadBodyLimit: a body of exactly the limit is read whole; one byte
// more is a *TooLargeError naming the limit, after reading no more than
// limit+1 bytes.
func TestReadBodyLimit(t *testing.T) {
	const limit = 1000
	b, err := ReadBody(strings.NewReader(strings.Repeat("x", limit)), limit)
	if err != nil || len(b.Bytes()) != limit {
		t.Fatalf("at the limit: %v", err)
	}
	b.Release()
	src := strings.NewReader(strings.Repeat("x", 5*limit))
	_, err = ReadBody(src, limit)
	var tl *TooLargeError
	if !errors.As(err, &tl) || tl.Limit != limit || !strings.Contains(err.Error(), "1000") {
		t.Fatalf("over the limit: %v", err)
	}
	if rejectStatus(err) != http.StatusRequestEntityTooLarge || rejectStatus(errors.New("x")) != http.StatusBadRequest {
		t.Fatal("rejectStatus does not tell 413 from 400")
	}
	if read := 5*limit - src.Len(); read != limit+1 {
		t.Fatalf("read %d bytes of an oversized body, want %d", read, limit+1)
	}
}

// memoBody is a valid request body; i varies its init_wind, so each i is a
// distinct body and job key.  Odd i carry their own slo field.
func memoBody(i int) []byte {
	slo := ""
	if i%2 == 1 {
		slo = `,"slo":"interactive"`
	}
	return []byte(fmt.Sprintf(`{"config":{"nlon":36,"nlat":24,"nlayers":3,"machine":"paragon",`+
		`"mesh_py":1,"mesh_px":1,"filter":"fft","init_wind":%d},"steps":%d%s}`, i, 1+i%3, slo))
}

// TestMemoConcurrentHitMissEvict: goroutines decode more distinct bodies
// than the memo holds, under every header class, so hits, misses, inserts
// racing on one body and CLOCK evictions interleave; every answer equals
// DecodeRequest's, and the memo never holds more than its entry budget.
// Run it under the race detector.
func TestMemoConcurrentHitMissEvict(t *testing.T) {
	distinct := memoEntries + memoEntries/2
	headers := []http.Header{{}, {"X-Agcm-Slo": {"batch"}}, {"X-Agcm-Slo": {"interactive"}}}
	want := make([][]*Request, distinct)
	for i := range want {
		for _, h := range headers {
			req, err := DecodeRequest(bytes.NewReader(memoBody(i)), h)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], req)
		}
	}
	m := NewMemo()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < 3000; n++ {
				// A hot quarter of the bodies draws most requests.
				i := rng.Intn(distinct)
				if n%4 != 0 {
					i = rng.Intn(distinct / 4)
				}
				hi := rng.Intn(len(headers))
				got, _, err := m.decode(memoBody(i), headers[hi])
				if err != nil || !reflect.DeepEqual(got, want[i][hi]) {
					errs <- fmt.Errorf("body %d header %v: %+v (%v), want %+v", i, headers[hi], got, err, want[i][hi])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := m.Len(); n > memoEntries || n < memoEntries/2 {
		t.Fatalf("memo holds %d bodies, want at most %d and not nearly empty", n, memoEntries)
	}
}

// TestMemoSkipsLargeBodies: a body over the entry budget decodes correctly
// and is not stored.
func TestMemoSkipsLargeBodies(t *testing.T) {
	body := append(memoBody(0), bytes.Repeat([]byte(" "), memoEntryBytes)...)
	m := NewMemo()
	req, raw, err := m.decode(body, http.Header{})
	if err != nil || req.Key == "" || raw != string(body) {
		t.Fatalf("large body: %v", err)
	}
	if m.Len() != 0 {
		t.Fatal("a body over the entry budget was stored")
	}
}

// TestMemoHitAllocBudget: a hit is one allocation, the returned Request.
func TestMemoHitAllocBudget(t *testing.T) {
	m := NewMemo()
	body := memoBody(3)
	h := http.Header{"X-Agcm-Slo": {"batch"}}
	if _, _, err := m.decode(body, h); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.decode(body, h) }); allocs != 1 {
		t.Fatalf("a memo hit allocates %v times, want 1", allocs)
	}
}

// TestEachServerOwnsItsMemo: a body one server decoded is not in another
// server's memo.  A memo shared across daemons — which the benchmark's
// one-process gateway → server stack would turn into a server hit on the
// gateway's decode — fails here.
func TestEachServerOwnsItsMemo(t *testing.T) {
	a, b := mustNew(t, Options{Workers: 1}), mustNew(t, Options{Workers: 1})
	defer a.Drain(context.Background())
	defer b.Drain(context.Background())
	if _, _, err := a.memo.Read(bytes.NewReader(memoBody(5)), MaxBodyBytes, http.Header{}); err != nil {
		t.Fatal(err)
	}
	if a.memo.Len() != 1 || b.memo.Len() != 0 {
		t.Fatalf("memo sizes %d and %d after one decode on the first server, want 1 and 0", a.memo.Len(), b.memo.Len())
	}
}
