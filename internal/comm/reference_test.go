package comm

// The message-based bodies of the complete collectives, as they ran through
// the mailboxes before their boards: the reference the board tests compare
// Barrier, AlltoallvInto and AllgathervInto against, bit for bit.

// refBarrier is Barrier's dissemination pattern as messages.
func refBarrier(c *Comm) {
	n := len(c.world)
	for dist := 1; dist < n; dist *= 2 {
		dst := (c.me + dist) % n
		src := (c.me - dist + n) % n
		c.p.SendFloatsCopy(c.WorldRank(dst), c.tag(tagBarrier), nil, 0)
		c.p.RecvFloatsInto(c.WorldRank(src), c.tag(tagBarrier), nil)
	}
}

// refAlltoallvInto is AlltoallvInto as messages.
func refAlltoallvInto(c *Comm, parts, out [][]float64) [][]float64 {
	n := len(c.world)
	for off := 1; off < n; off++ {
		dst := (c.me + off) % n
		c.p.SendFloatsCopy(c.WorldRank(dst), c.tag(tagAlltoall), parts[dst], len(parts[dst])*bytesPerFloat)
	}
	out[c.me] = append(out[c.me][:0], parts[c.me]...)
	for off := 1; off < n; off++ {
		src := (c.me - off + n) % n
		out[src] = c.p.RecvFloatsInto(c.WorldRank(src), c.tag(tagAlltoall), out[src])
	}
	return out
}

// refAllgathervInto is AllgathervInto's ring as messages.
func refAllgathervInto(c *Comm, data []float64, out [][]float64) [][]float64 {
	n := len(c.world)
	next := (c.me + 1) % n
	prev := (c.me - 1 + n) % n
	out[c.me] = append(out[c.me][:0], data...)
	cur := data
	curSrc := c.me
	for step := 1; step < n; step++ {
		c.p.SendFloatsCopy(c.WorldRank(next), c.tag(tagShift), cur, len(cur)*bytesPerFloat)
		curSrc = (curSrc - 1 + n) % n
		out[curSrc] = c.p.RecvFloatsInto(c.WorldRank(prev), c.tag(tagShift), out[curSrc])
		cur = out[curSrc]
	}
	return out
}
