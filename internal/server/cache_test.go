package server

import (
	"bytes"
	"fmt"
	"testing"
)

func TestCacheGetPut(t *testing.T) {
	c := newCache(64)
	if _, ok := c.Get("absent"); ok {
		t.Fatal("empty cache claims a hit")
	}
	c.Put("k", []byte("v1"))
	if b, ok := c.Get("k"); !ok || !bytes.Equal(b, []byte("v1")) {
		t.Fatalf("Get = %q, %v", b, ok)
	}
	// Overwrite keeps a single entry.
	c.Put("k", []byte("v2"))
	if b, _ := c.Get("k"); !bytes.Equal(b, []byte("v2")) {
		t.Fatalf("after overwrite Get = %q", b)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2)
	c.Put("a", []byte("0"))
	c.Put("b", []byte("1"))
	// Touch a so b is the LRU entry.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("warm entry missing")
	}
	c.Put("c", []byte("2")) // full: must evict b
	if _, ok := c.Get("b"); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("new entry missing")
	}
	if ev := c.Evictions(); ev != 1 {
		t.Errorf("Evictions = %d, want 1", ev)
	}
}

// TestCacheHoldsExactCapacity: a cache of capacity n keeps exactly n
// entries, whatever the keys, and each insert past that evicts the globally
// least recently used one.  Capacity is never rounded to a shard count.
func TestCacheHoldsExactCapacity(t *testing.T) {
	for _, n := range []int{1, 4, 17, 1000} {
		c := newCache(n)
		key := func(i int) string { return fmt.Sprintf("key-%d", i) }
		for i := 0; i < n; i++ {
			c.Put(key(i), []byte("x"))
		}
		if c.Len() != n || c.Evictions() != 0 {
			t.Fatalf("capacity %d: Len %d, Evictions %d after %d puts", n, c.Len(), c.Evictions(), n)
		}
		// Refresh every entry but the oldest in reverse order: key(0) stays
		// LRU, then key(n-1), key(n-2), ...
		for i := n - 1; i >= 1; i-- {
			c.Get(key(i))
		}
		c.Put(key(n), []byte("x"))
		if _, ok := c.Get(key(0)); ok {
			t.Errorf("capacity %d: least recently used key(0) survived", n)
		}
		if n > 1 {
			c.Put(key(n+1), []byte("x"))
			if _, ok := c.Get(key(n - 1)); ok {
				t.Errorf("capacity %d: next least recently used key(%d) survived", n, n-1)
			}
		}
		if n > 2 {
			if _, ok := c.Get(key(1)); !ok {
				t.Errorf("capacity %d: recently used key(1) was evicted", n)
			}
		}
		if c.Len() != n {
			t.Errorf("capacity %d: Len %d after evictions", n, c.Len())
		}
	}
}
