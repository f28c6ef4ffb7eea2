package comm

import (
	"fmt"
	"testing"
)

// pinAllocFree pins the steady-state allocation count of one communication
// round at zero on a machine of the given size.  setup builds a rank's persistent
// buffers and returns its round.  testing.AllocsPerRun counts mallocs
// process-wide, so every rank of the machine — not just the measured one —
// must run its rounds allocation-free; the warmup rounds populate the
// transport's message free lists and payload pools first.  AllocsPerRun
// invokes the measured function runs+1 times, so the partner ranks loop
// exactly runs+1 rounds to stay matched.
func pinAllocFree(t *testing.T, ranks int, name string, setup func(c *Comm) (round func())) {
	t.Helper()
	const warm, runs = 5, 50
	runWorld(t, ranks, func(c *Comm) error {
		round := setup(c)
		for i := 0; i < warm; i++ {
			round()
		}
		if c.Rank() == 0 {
			if n := testing.AllocsPerRun(runs, round); n != 0 {
				return fmt.Errorf("%s allocated %.1f times per round; want 0", name, n)
			}
			return nil
		}
		for i := 0; i < runs+1; i++ {
			round()
		}
		return nil
	})
}

// rankData returns n floats that differ by rank.
func rankData(c *Comm, n int) []float64 {
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(c.Rank()*1000 + i)
	}
	return data
}

func TestAllreduceIntoAllocFree(t *testing.T) {
	pinAllocFree(t, 4, "AllreduceInto", func(c *Comm) func() {
		data := rankData(c, 64)
		out := make([]float64, 0, len(data))
		return func() { out = c.AllreduceInto(data, out, SumOp) }
	})
}

func TestAlltoallvIntoAllocFree(t *testing.T) {
	pinAllocFree(t, 4, "AlltoallvInto", func(c *Comm) func() {
		parts, out := make([][]float64, c.Size()), make([][]float64, c.Size())
		for i := range parts {
			parts[i] = rankData(c, 16+i) // a different pool length class per peer
		}
		return func() { out = c.AlltoallvInto(parts, out) }
	})
}

func TestAllgathervIntoAllocFree(t *testing.T) {
	pinAllocFree(t, 4, "AllgathervInto", func(c *Comm) func() {
		data := rankData(c, 16+c.Rank())
		out := make([][]float64, c.Size())
		return func() { out = c.AllgathervInto(data, out) }
	})
}

func TestSendCopyRecvIntoAllocFree(t *testing.T) {
	pinAllocFree(t, 4, "SendCopy/RecvInto", func(c *Comm) func() {
		data := rankData(c, 64)
		var buf []float64
		next, prev := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
		return func() {
			c.SendCopy(next, 3, data)
			buf = c.RecvInto(prev, 3, buf)
		}
	})
}

// TestBarrierAllocFree pins the dissemination barrier at the mesh's size: its
// zero-length tokens ride the mailboxes' n = 0 free lists like any other
// message, and a barrier bounds how far any rank runs ahead of another, so
// the warm-up rounds see every queue depth the measured ones do.
func TestBarrierAllocFree(t *testing.T) {
	pinAllocFree(t, 240, "Barrier", func(c *Comm) func() { return c.Barrier })
}

// TestNewCart2DAllocs pins what building the 8x30 mesh's communicators costs
// each rank: the color and key tables and the Cart2D (4), and per Split the
// exactly sized member and key lists and the Comm (3 each).  The other
// ranks wait in a barrier warmed beforehand, so the count is rank 0's alone.
func TestNewCart2DAllocs(t *testing.T) {
	const py, px, want = 8, 30, 10
	runWorld(t, py*px, func(c *Comm) error {
		for i := 0; i < 3; i++ {
			c.Barrier()
		}
		defer c.Barrier()
		if c.Rank() != 0 {
			return nil
		}
		if n := testing.AllocsPerRun(20, func() { NewCart2D(c, py, px) }); n != want {
			return fmt.Errorf("NewCart2D allocated %.1f times per rank; want %d", n, want)
		}
		return nil
	})
}
