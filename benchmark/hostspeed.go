package main

import (
	"math"
	"time"
)

// The sandbox this benchmark runs on shares its cores' siblings and its
// memory system with other tenants: the same op costs 0.22 s in a quiet
// stretch and 0.29 to 0.38 s in a contended one, stretches last from seconds
// to minutes, and raw medians of two runs of the same code were seen to
// differ by more than any useful bound.  Every timed interval (an op, a slice
// of requests, a set-up step) is therefore bracketed by a fixed probe of the
// two things every workload leans on — the memory system and the goroutine
// scheduler — and its wall time is divided by the slowdown the probe saw.
// The reported times are wall times at the host's nominal speed; the raw ones
// are printed beside them.  (A floating-point loop was tried as a third part
// and dropped: it tracked the workloads erratically.)

const (
	// sweepFloats is the memory probe's working set: 32 MiB, far beyond the
	// private caches, one read per cache line.
	sweepFloats = 4 << 20
	// pingpongs is the number of round trips between two goroutines.
	pingpongs = 6000

	// The nominal times are what each part takes on this class of sandbox
	// when nothing else contends.  They only fix the scale of the reported
	// times; comparisons between two runs do not depend on them.
	nominalSweepS    = 0.0032
	nominalPingpongS = 0.0023

	// probeFresh is how long a probe sample stands for the host's speed
	// before a lap takes a new one.
	probeFresh = 20 * time.Millisecond
)

// hostClock measures intervals at nominal host speed.
type hostClock struct {
	sweepBuf []float64
	sink     float64
	ping     chan int
	pong     chan int

	last   float64 // the latest probe's slowdown
	lastAt time.Time
}

// newHostClock starts the probe's echo goroutine; stop ends it.
func newHostClock() *hostClock {
	c := &hostClock{
		sweepBuf: make([]float64, sweepFloats),
		ping:     make(chan int),
		pong:     make(chan int),
	}
	for i := range c.sweepBuf {
		c.sweepBuf[i] = float64(i)
	}
	go func() {
		for v := range c.ping {
			c.pong <- v
		}
		close(c.pong)
	}()
	c.probe() // the first pass faults the pages in
	return c
}

// stop ends the echo goroutine and waits for it.
func (c *hostClock) stop() {
	close(c.ping)
	<-c.pong
}

// probe returns the host's current slowdown against nominal: the geometric
// mean over a memory sweep and a goroutine ping-pong.
func (c *hostClock) probe() float64 {
	t0 := time.Now()
	s := 0.0
	for i := 0; i < len(c.sweepBuf); i += 8 {
		s += c.sweepBuf[i]
	}
	c.sink += s
	t1 := time.Now()
	for i := 0; i < pingpongs; i++ {
		c.ping <- i
		<-c.pong
	}
	c.lastAt = time.Now()
	c.last = math.Sqrt(t1.Sub(t0).Seconds() / nominalSweepS * c.lastAt.Sub(t1).Seconds() / nominalPingpongS)
	return c.last
}

// lap runs fn between two probes and returns its wall seconds and the
// host-speed factor to multiply them by.  The probe that closed the previous
// lap opens this one when it is still fresh.
func (c *hostClock) lap(fn func()) (wall, speed float64) {
	before := c.last
	if time.Since(c.lastAt) > probeFresh {
		before = c.probe()
	}
	start := time.Now()
	fn()
	wall = time.Since(start).Seconds()
	after := c.probe()
	return wall, 2 / (before + after)
}
