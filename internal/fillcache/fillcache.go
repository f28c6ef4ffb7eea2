// Package fillcache shares read-only values through a map that only ever
// fills.  agcmd runs whatever grid and mesh a request names, so a cache holds
// at most its limit of values and never evicts; a value that does not fit,
// or that its caller says is too large to share, is built for that one
// caller.
package fillcache

import "sync"

// Cache maps keys to values built once and then only read.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	limit int
	byKey map[K]V
}

// New returns an empty cache that holds at most limit values.
func New[K comparable, V any](limit int) *Cache[K, V] {
	return &Cache[K, V]{limit: limit, byKey: make(map[K]V)}
}

// Get returns the value for key, building it under the lock on first use so
// that callers starting together build it once; share=false bypasses the
// map.  build learns whether its value will be shared or is this caller's
// alone.
func (c *Cache[K, V]) Get(key K, share bool, build func(shared bool) V) V {
	if !share {
		return build(false)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.byKey[key]
	if !ok {
		shared := len(c.byKey) < c.limit
		v = build(shared)
		if shared {
			c.byKey[key] = v
		}
	}
	return v
}

// Len returns the number of values the cache holds.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}

// Reset empties the cache, so that a test sees it cold.  Values already
// handed out stay valid.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.byKey)
}
