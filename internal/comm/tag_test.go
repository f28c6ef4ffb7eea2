package comm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"agcm/internal/sim"
)

// TestReservedTagPanicsClearly: a user tag inside the reserved collective
// band must abort with a message naming the valid range, not silently
// collide with collective traffic.
func TestReservedTagPanicsClearly(t *testing.T) {
	for _, tag := range []int{maxUserTag, tagBarrier, -1} {
		m := sim.New(2, flatModel{})
		_, err := runWithin(t, m, func(p *sim.Proc) error {
			c := World(p)
			if c.Rank() == 0 {
				c.SendCopy(1, tag, []float64{1})
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "reserved for collective traffic") {
			t.Fatalf("tag %d: err = %v, want reserved-tag panic message", tag, err)
		}
	}
}

// TestHighUserTagNoGathervCollision is the regression test for the tag
// collision: the gather payload tag used to sit at maxUserTag-1 *inside* the
// user range, so a pending user message with that tag was consumed by a
// concurrent GathervInto.  Every legal user tag must now be safe.
func TestHighUserTagNoGathervCollision(t *testing.T) {
	const userTag = maxUserTag - 1 // the old Gatherv payload tag
	runWorld(t, 3, func(c *Comm) error {
		// Non-root ranks post a user message to root *before* the
		// collective, so it is queued when GathervInto's receives run.
		if c.Rank() != 0 {
			c.SendCopy(0, userTag, []float64{-1, -2})
		}
		parts := c.GathervInto(0, []float64{float64(c.Rank() + 1)}, make([][]float64, 3))
		if c.Rank() == 0 {
			for r, part := range parts {
				if len(part) != 1 || part[0] != float64(r+1) {
					return fmt.Errorf("gathered part[%d] = %v, want [%d] (user message leaked into the collective)",
						r, part, r+1)
				}
			}
			for src := 1; src < c.Size(); src++ {
				got := c.RecvInto(src, userTag, nil)
				if len(got) != 2 || got[0] != -1 {
					return fmt.Errorf("user message from %d = %v, want [-1 -2]", src, got)
				}
			}
		}
		return nil
	})
}

// TestSplitHighTagNoCollectiveCollision checks the Split interaction with
// the reserved tag band: user messages at the very top of the user range
// (maxUserTag-1), pending both across the split boundary on the parent comm
// and inside a sub-communicator, must survive collectives on BOTH
// communicators untouched.  Split gives each color a fresh context, so a
// collision here would mean either the context fold or the reserved-band
// offset regressed.
func TestSplitHighTagNoCollectiveCollision(t *testing.T) {
	const userTag = maxUserTag - 1
	runWorld(t, 4, func(c *Comm) error {
		colors := []int{0, 0, 1, 1}
		keys := []int{0, 1, 0, 1}
		sub := c.Split(colors, keys, 7)
		groupBase := 2 * colors[c.Rank()] // world rank of each group's sub rank 0

		// A high-tag user message crossing the split boundary on the
		// parent comm, queued before any collective runs.
		if c.Rank() == 0 {
			c.SendCopy(2, userTag, []float64{42})
		}
		// And one at the same tag inside each sub-communicator.
		if sub.Rank() == 1 {
			sub.SendCopy(0, userTag, []float64{float64(100 + c.Rank())})
		}

		// Collectives on both communicators with both messages pending.
		subParts := sub.GathervInto(0, []float64{float64(c.Rank())}, make([][]float64, 2))
		if sub.Rank() == 0 {
			for r, part := range subParts {
				if len(part) != 1 || part[0] != float64(groupBase+r) {
					return fmt.Errorf("sub gather part[%d] = %v, want [%d] (user message leaked into the sub-comm collective)",
						r, part, groupBase+r)
				}
			}
		}
		worldParts := c.GathervInto(0, []float64{float64(10 * c.Rank())}, make([][]float64, 4))
		if c.Rank() == 0 {
			for r, part := range worldParts {
				if len(part) != 1 || part[0] != float64(10*r) {
					return fmt.Errorf("world gather part[%d] = %v, want [%d] (user message leaked into the parent collective)",
						r, part, 10*r)
				}
			}
		}

		// Both user messages must still be deliverable, intact.
		if c.Rank() == 2 {
			if got := c.RecvInto(0, userTag, nil); len(got) != 1 || got[0] != 42 {
				return fmt.Errorf("cross-boundary user message = %v, want [42]", got)
			}
		}
		if sub.Rank() == 0 {
			want := float64(100 + groupBase + 1)
			if got := sub.RecvInto(1, userTag, nil); len(got) != 1 || got[0] != want {
				return fmt.Errorf("sub-comm user message = %v, want [%v]", got, want)
			}
		}
		return nil
	})
}

// TestSplitReservedTagStillPanics checks that checkUserTag guards
// sub-communicators exactly as it guards the world comm: the reserved band
// begins at maxUserTag in every context.
func TestSplitReservedTagStillPanics(t *testing.T) {
	m := sim.New(4, flatModel{})
	_, err := runWithin(t, m, func(p *sim.Proc) error {
		c := World(p)
		sub := c.Split([]int{0, 0, 1, 1}, []int{0, 1, 0, 1}, 3)
		if sub.Rank() == 0 {
			sub.SendCopy(1, maxUserTag, []float64{1})
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "reserved for collective traffic") {
		t.Fatalf("err = %v, want reserved-tag panic message on the split comm", err)
	}
}

// TestScattervWithPendingHighTag is the mirrored case for ScattervInto.
func TestScattervWithPendingHighTag(t *testing.T) {
	const userTag = maxUserTag - 1
	runWorld(t, 3, func(c *Comm) error {
		var parts [][]float64
		if c.Rank() == 0 {
			for r := 1; r < c.Size(); r++ {
				c.SendCopy(r, userTag, []float64{99})
			}
			parts = [][]float64{{10}, {11}, {12}}
		}
		mine := c.ScattervInto(0, parts, nil)
		if len(mine) != 1 || mine[0] != float64(10+c.Rank()) {
			return fmt.Errorf("scattered %v, want [%d]", mine, 10+c.Rank())
		}
		if c.Rank() != 0 {
			if got := c.RecvInto(0, userTag, nil); len(got) != 1 || got[0] != 99 {
				return fmt.Errorf("user message = %v, want [99]", got)
			}
		}
		return nil
	})
}

// TestLargestTagDeadlockReportsExactTag: the largest machine-level tag comm
// produces is the barrier tag of the last column context of a 1024-wide mesh
// (NewCart2D).  A barrier one rank skips on that communicator deadlocks, and
// the watchdog must name that tag exactly: sim packs it into 32 bits of the
// key the parked rank publishes.
func TestLargestTagDeadlockReportsExactTag(t *testing.T) {
	const want = (cartCtxBase+2*maxMeshDim)*tagSpace + tagBarrier
	_, err := runWithin(t, sim.New(2, flatModel{}), func(p *sim.Proc) error {
		last := []int{maxMeshDim - 1, maxMeshDim - 1} // the last column's color
		col := World(p).Split(last, []int{0, 1}, cartCtxBase+maxMeshDim)
		if got := col.tag(tagBarrier); got != want {
			return fmt.Errorf("last column's barrier tag is %d, want %d", got, want)
		}
		if p.Rank() == 0 {
			col.Barrier()
		}
		return nil
	})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) || len(dl.Blocked) != 1 || dl.Blocked[0] != (sim.BlockedRank{Rank: 0, Src: 1, Tag: want}) {
		t.Fatalf("err = %v, want a deadlock of rank 0 on (src 1, tag %d)", err, want)
	}
}
