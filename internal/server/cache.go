package server

import (
	"container/list"
	"sync"
)

// cache is the in-memory LRU result cache.  Keys are content addresses
// (core.Config.ConfigKey plus the step count) and values are the finished,
// byte-exact HTTP response bodies, so a hit is a map lookup and a write —
// the simulation itself is never re-run.  It holds exactly capacity entries
// and evicts the least recently used one; one mutex suffices, since
// handleRun already consults it under the server's flight lock.
type cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
	evicted  uint64
}

type cacheEntry struct {
	key  string
	body []byte
}

// newCache builds a cache holding up to capacity entries (at least one).
func newCache(capacity int) *cache {
	return &cache{
		capacity: max(capacity, 1),
		entries:  make(map[string]*list.Element),
		order:    list.New(),
	}
}

// Get returns the cached body for key, refreshing its recency.
func (c *cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Put stores body under key, evicting the least recently used entry when
// at capacity.  Bodies are immutable once stored.
func (c *cache) Put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return
	}
	if c.order.Len() >= c.capacity {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
		c.evicted++
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, body: body})
}

// Len returns the entry count.
func (c *cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Evictions returns the total LRU evictions.
func (c *cache) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}
