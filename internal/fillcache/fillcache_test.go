package fillcache

import (
	"sync"
	"testing"
)

// TestGetBuildsOnceAndStopsAtLimit fills a cache past its limit: a shared
// key is built once, a key past the limit and an unshared key are built on
// every call, each build is told which it is, and the cache never holds
// more than its limit.
func TestGetBuildsOnceAndStopsAtLimit(t *testing.T) {
	c := New[int, *int](2)
	builds, lastShared := 0, false
	get := func(k int, share bool) *int {
		return c.Get(k, share, func(shared bool) *int { builds++; lastShared = shared; v := k; return &v })
	}
	if a, b := get(1, true), get(1, true); a != b || builds != 1 || !lastShared {
		t.Fatalf("a shared key was built %d times (told shared: %v)", builds, lastShared)
	}
	get(2, true)
	if a, b := get(3, true), get(3, true); a == b || c.Len() != 2 || lastShared {
		t.Fatalf("a key past the limit was shared (cache holds %d, told shared: %v)", c.Len(), lastShared)
	}
	if a, b := get(1, false), get(1, false); a == b || *a != 1 || lastShared {
		t.Fatal("an unshared key came from the map or was told it is shared")
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Reset left %d values", c.Len())
	}
}

// TestGetConcurrent starts many callers at once on a cold key: all get the
// one value (run under -race in CI).
func TestGetConcurrent(t *testing.T) {
	c := New[string, *int](4)
	const callers = 32
	got := make([]*int, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.Get("k", true, func(bool) *int { return new(int) })
		}()
	}
	wg.Wait()
	for i, p := range got {
		if p != got[0] {
			t.Fatalf("caller %d got its own value", i)
		}
	}
}
