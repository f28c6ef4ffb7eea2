// Package cachesim implements a set-associative LRU data-cache simulator.
// The paper's single-node experiments (Section 3.4) hinge on cache behaviour
// that 1990s hardware exposed brutally — separate field arrays conflicting
// in a small direct-mapped cache versus a block-interleaved array — and this
// simulator lets the repository reproduce those measurements from the
// paper nodes' cache geometry (singlenode.Node) rather than from the host
// CPU.
package cachesim

import "fmt"

// Cache is a set-associative cache with LRU replacement.  Addresses are
// byte addresses; only data placement is modelled (no prefetching or write
// buffers, like the i860 XP and EV4 of the paper's machines).
type Cache struct {
	lineBytes int
	sets      int
	ways      int

	// tags[set*ways+way] holds the line tag; lru holds a per-way stamp.
	tags  []int64
	valid []bool
	lru   []uint64
	clock uint64

	accesses uint64
	misses   uint64
}

// New builds a cache of the given total size, line size and associativity.
func New(sizeBytes, lineBytes, ways int) *Cache {
	if sizeBytes <= 0 || lineBytes <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cachesim: invalid geometry size=%d line=%d ways=%d",
			sizeBytes, lineBytes, ways))
	}
	if sizeBytes%(lineBytes*ways) != 0 {
		panic(fmt.Sprintf("cachesim: size %d not divisible by line*ways=%d",
			sizeBytes, lineBytes*ways))
	}
	sets := sizeBytes / (lineBytes * ways)
	return &Cache{
		lineBytes: lineBytes,
		sets:      sets,
		ways:      ways,
		tags:      make([]int64, sets*ways),
		valid:     make([]bool, sets*ways),
		lru:       make([]uint64, sets*ways),
	}
}

// Access touches one byte address and reports whether it hit.
func (c *Cache) Access(addr int64) bool {
	c.accesses++
	c.clock++
	line := addr / int64(c.lineBytes)
	set := int(line % int64(c.sets))
	base := set * c.ways
	// Hit?
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			c.lru[base+w] = c.clock
			return true
		}
	}
	// Miss: fill the LRU way.
	c.misses++
	victim := base
	for w := 1; w < c.ways; w++ {
		if !c.valid[base+w] {
			victim = base + w
			break
		}
		if c.lru[base+w] < c.lru[victim] {
			victim = base + w
		}
	}
	c.tags[victim] = line
	c.valid[victim] = true
	c.lru[victim] = c.clock
	return false
}

// AccessRange touches every line covered by [addr, addr+bytes) and returns
// the number of misses.
func (c *Cache) AccessRange(addr int64, bytes int) int {
	misses := 0
	first := addr / int64(c.lineBytes)
	last := (addr + int64(bytes) - 1) / int64(c.lineBytes)
	for line := first; line <= last; line++ {
		if !c.Access(line * int64(c.lineBytes)) {
			misses++
		}
	}
	return misses
}

// Accesses returns the total access count.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Misses returns the total miss count.
func (c *Cache) Misses() uint64 { return c.misses }

// MissRate returns misses/accesses (0 when untouched).
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.clock, c.accesses, c.misses = 0, 0, 0
}

// LineBytes returns the cache line size.
func (c *Cache) LineBytes() int { return c.lineBytes }
