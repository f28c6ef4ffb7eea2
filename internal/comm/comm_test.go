package comm

import (
	"fmt"
	"math"
	"testing"

	"agcm/internal/machine"
	"agcm/internal/sim"
)

type flatModel struct{}

func (flatModel) FlopSeconds(n float64) float64         { return n * 1e-7 }
func (flatModel) MemSeconds(n float64) float64          { return n * 1e-9 }
func (flatModel) SendOverheadSeconds(bytes int) float64 { return 1e-5 }
func (flatModel) RecvOverheadSeconds(bytes int) float64 { return 1e-5 }
func (flatModel) NetworkSeconds(bytes int) float64      { return 1e-4 + float64(bytes)*1e-8 }

// runWorld executes body on an n-rank machine and fails the test on error.
func runWorld(t *testing.T, n int, body func(c *Comm) error) *sim.Result {
	t.Helper()
	res, err := runWithin(t, sim.New(n, flatModel{}), func(p *sim.Proc) error {
		return body(World(p))
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWorldRankSize(t *testing.T) {
	runWorld(t, 5, func(c *Comm) error {
		if c.Size() != 5 {
			return fmt.Errorf("Size = %d", c.Size())
		}
		if c.Rank() != c.Proc().Rank() {
			return fmt.Errorf("Rank %d != proc rank %d", c.Rank(), c.Proc().Rank())
		}
		return nil
	})
}

func TestSendRecvRoundtrip(t *testing.T) {
	runWorld(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.SendCopy(1, 3, []float64{1, 2, 3})
			got := c.RecvInto(1, 4, nil)
			if len(got) != 1 || got[0] != 9 {
				return fmt.Errorf("got %v", got)
			}
		} else {
			// A receive buffer that is too long is cut, one too short grown.
			got := c.RecvInto(0, 3, make([]float64, 7))
			if len(got) != 3 || got[1] != 2 {
				return fmt.Errorf("got %v", got)
			}
			c.SendCopy(0, 4, []float64{9})
		}
		return nil
	})
}

func TestSendCopyIsolatesBuffer(t *testing.T) {
	runWorld(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{1, 2, 3}
			c.SendCopy(1, 0, buf)
			buf[0] = 99 // mutate after send: receiver must not see it
		} else {
			got := c.RecvInto(0, 0, nil)
			if got[0] != 1 {
				return fmt.Errorf("receiver saw mutation: %v", got)
			}
		}
		return nil
	})
}

func TestSendrecvPairwiseNoDeadlock(t *testing.T) {
	runWorld(t, 2, func(c *Comm) error {
		partner := 1 - c.Rank()
		got := c.SendrecvInto(partner, 0, []float64{float64(c.Rank())}, partner, 0, nil)
		if got[0] != float64(partner) {
			return fmt.Errorf("rank %d got %v", c.Rank(), got)
		}
		return nil
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	res := runWorld(t, 7, func(c *Comm) error {
		// Rank r computes r milliseconds of virtual work, then barriers.
		c.Proc().Compute(float64(c.Rank()) * 1e4)
		c.Barrier()
		return nil
	})
	// After a barrier no clock may precede the slowest pre-barrier clock.
	slowest := 6.0 * 1e4 * 1e-7
	for r, clk := range res.Clocks {
		if clk < slowest {
			t.Errorf("rank %d clock %g below slowest pre-barrier time %g", r, clk, slowest)
		}
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13} {
		for root := 0; root < n; root++ {
			n, root := n, root
			runWorld(t, n, func(c *Comm) error {
				var data []float64
				if c.Rank() == root {
					data = []float64{3.5, -1, float64(root)}
				}
				got := c.BcastInto(root, data)
				if len(got) != 3 || got[0] != 3.5 || got[2] != float64(root) {
					return fmt.Errorf("n=%d root=%d rank=%d got %v", n, root, c.Rank(), got)
				}
				return nil
			})
		}
	}
}

func TestReduceSumAllRootsAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12} {
		for root := 0; root < n; root++ {
			n, root := n, root
			runWorld(t, n, func(c *Comm) error {
				data := []float64{float64(c.Rank()), 1}
				got := c.ReduceInto(root, data, nil, SumOp)
				if c.Rank() != root {
					if got != nil {
						return fmt.Errorf("non-root got %v", got)
					}
					return nil
				}
				wantSum := float64(n*(n-1)) / 2
				if got[0] != wantSum || got[1] != float64(n) {
					return fmt.Errorf("n=%d root=%d reduce got %v, want [%g %d]", n, root, got, wantSum, n)
				}
				return nil
			})
		}
	}
}

// allreduceScalar is a single-value AllreduceInto.
func allreduceScalar(c *Comm, v float64, op Op) float64 {
	return c.AllreduceInto([]float64{v}, nil, op)[0]
}

func TestAllreduceMaxMin(t *testing.T) {
	runWorld(t, 6, func(c *Comm) error {
		v := float64(c.Rank()*c.Rank()) - 3
		if got := allreduceScalar(c, v, MaxOp); got != 22 {
			return fmt.Errorf("max got %g, want 22", got)
		}
		// The minimum is the negated maximum of the negated values.
		if got := -allreduceScalar(c, -v, MaxOp); got != -3 {
			return fmt.Errorf("min got %g, want -3", got)
		}
		if got := allreduceScalar(c, 1, SumOp); got != 6 {
			return fmt.Errorf("sum got %g, want 6", got)
		}
		return nil
	})
}

func TestGatherAndGatherv(t *testing.T) {
	runWorld(t, 4, func(c *Comm) error {
		// Variable-length contributions: rank r sends r+1 values of r.
		mine := make([]float64, c.Rank()+1)
		for i := range mine {
			mine[i] = float64(c.Rank())
		}
		parts := c.GathervInto(2, mine, make([][]float64, 4))
		if c.Rank() != 2 {
			if parts != nil {
				return fmt.Errorf("non-root got parts")
			}
			return nil
		}
		for r, p := range parts {
			if len(p) != r+1 {
				return fmt.Errorf("part %d has len %d", r, len(p))
			}
			for _, v := range p {
				if v != float64(r) {
					return fmt.Errorf("part %d contains %g", r, v)
				}
			}
		}
		return nil
	})
	// Equal-length contributions concatenate in comm rank order.
	runWorld(t, 3, func(c *Comm) error {
		parts := c.GathervInto(0, []float64{float64(c.Rank()), float64(c.Rank() * 10)}, make([][]float64, 3))
		if c.Rank() == 0 {
			var flat []float64
			for _, p := range parts {
				flat = append(flat, p...)
			}
			want := []float64{0, 0, 1, 10, 2, 20}
			if len(flat) != len(want) {
				return fmt.Errorf("gather len %d", len(flat))
			}
			for i := range want {
				if flat[i] != want[i] {
					return fmt.Errorf("gather %v, want %v", flat, want)
				}
			}
		}
		return nil
	})
}

func TestScatterv(t *testing.T) {
	runWorld(t, 4, func(c *Comm) error {
		var parts [][]float64
		if c.Rank() == 1 {
			parts = [][]float64{{0}, {1, 1}, {2, 2, 2}, {3}}
		}
		got := c.ScattervInto(1, parts, nil)
		if len(got) == 0 || got[0] != float64(c.Rank()) {
			return fmt.Errorf("rank %d got %v", c.Rank(), got)
		}
		if c.Rank() == 2 && len(got) != 3 {
			return fmt.Errorf("rank 2 got %v", got)
		}
		return nil
	})
}

func TestAlltoallv(t *testing.T) {
	runWorld(t, 5, func(c *Comm) error {
		parts := make([][]float64, 5)
		for dst := range parts {
			parts[dst] = []float64{float64(c.Rank()*100 + dst)}
		}
		got := c.AlltoallvInto(parts, make([][]float64, 5))
		for src, p := range got {
			want := float64(src*100 + c.Rank())
			if len(p) != 1 || p[0] != want {
				return fmt.Errorf("rank %d from %d got %v, want %g", c.Rank(), src, p, want)
			}
		}
		return nil
	})
}

func TestRingShiftAndAllgatherv(t *testing.T) {
	runWorld(t, 4, func(c *Comm) error {
		// One hop around the ring, then the ring allgather built of such hops.
		next, prev := (c.Rank()+1)%4, (c.Rank()+3)%4
		got := c.SendrecvInto(next, 0, []float64{float64(c.Rank())}, prev, 0, nil)
		if got[0] != float64(prev) {
			return fmt.Errorf("ring shift got %v, want %d", got, prev)
		}
		all := c.AllgathervInto([]float64{float64(c.Rank() * 11)}, make([][]float64, 4))
		for r, p := range all {
			if len(p) != 1 || p[0] != float64(r*11) {
				return fmt.Errorf("allgather from %d got %v", r, p)
			}
		}
		return nil
	})
}

func TestAllgathervTreeMatchesRing(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		n := n
		runWorld(t, n, func(c *Comm) error {
			mine := make([]float64, c.Rank()+1) // variable lengths
			for i := range mine {
				mine[i] = float64(c.Rank()*10 + i)
			}
			ring := c.AllgathervInto(mine, make([][]float64, n))
			tree := c.AllgathervTree(mine)
			if len(ring) != len(tree) {
				return fmt.Errorf("n=%d: lengths differ", n)
			}
			for r := range ring {
				if len(ring[r]) != len(tree[r]) {
					return fmt.Errorf("n=%d: rank %d part lengths differ", n, r)
				}
				for i := range ring[r] {
					if ring[r][i] != tree[r][i] {
						return fmt.Errorf("n=%d: rank %d value %d differs", n, r, i)
					}
				}
			}
			return nil
		})
	}
}

func TestAllgathervTreeCheaperThanRingAtScale(t *testing.T) {
	// The paper's point about the binary-tree alternative: fewer message
	// start-ups on wide meshes.
	timeOf := func(fn func(c *Comm)) float64 {
		m := sim.New(30, flatModel{})
		res, err := runWithin(t, m, func(p *sim.Proc) error {
			fn(World(p))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxClock()
	}
	data := make([]float64, 4) // latency-dominated regime
	ring := timeOf(func(c *Comm) { c.AllgathervInto(data, make([][]float64, 30)) })
	tree := timeOf(func(c *Comm) { c.AllgathervTree(data) })
	if tree >= ring {
		t.Fatalf("tree allgather (%g s) not cheaper than ring (%g s) on 30 ranks", tree, ring)
	}
}

func TestSplitCommunicatorsIsolateTraffic(t *testing.T) {
	// Messages sent within one split group must never be received by a
	// same-rank member of another group (context isolation).
	runWorld(t, 4, func(c *Comm) error {
		colors := []int{0, 0, 1, 1}
		keys := []int{0, 1, 0, 1}
		sub := c.Split(colors, keys, 50)
		partner := 1 - sub.Rank()
		sent := float64(c.Rank() * 100)
		got := sub.SendrecvInto(partner, 9, []float64{sent}, partner, 9, nil)
		// My partner is within my color group.
		wantFrom := map[int]int{0: 1, 1: 0, 2: 3, 3: 2}[c.Rank()]
		if got[0] != float64(wantFrom*100) {
			return fmt.Errorf("rank %d got %g, want from world rank %d", c.Rank(), got[0], wantFrom)
		}
		return nil
	})
}

func TestSplitRowsAndColumns(t *testing.T) {
	// 2x3 mesh: check row and column communicators see the right peers.
	runWorld(t, 6, func(c *Comm) error {
		cart := NewCart2D(c, 2, 3)
		if cart.Row.Size() != 3 || cart.Col.Size() != 2 {
			return fmt.Errorf("row size %d col size %d", cart.Row.Size(), cart.Col.Size())
		}
		if cart.Row.Rank() != cart.MyCol {
			return fmt.Errorf("row rank %d, want col index %d", cart.Row.Rank(), cart.MyCol)
		}
		if cart.Col.Rank() != cart.MyRow {
			return fmt.Errorf("col rank %d, want row index %d", cart.Col.Rank(), cart.MyRow)
		}
		// A row allreduce must sum only within the row.
		sum := allreduceScalar(cart.Row, float64(c.Rank()), SumOp)
		wantRow := 0.0
		for col := 0; col < 3; col++ {
			wantRow += float64(cart.MyRow*3 + col)
		}
		if sum != wantRow {
			return fmt.Errorf("row sum %g, want %g", sum, wantRow)
		}
		// A column allreduce must sum only within the column.
		csum := allreduceScalar(cart.Col, float64(c.Rank()), SumOp)
		wantCol := float64(cart.MyCol) + float64(3+cart.MyCol)
		if csum != wantCol {
			return fmt.Errorf("col sum %g, want %g", csum, wantCol)
		}
		return nil
	})
}

func TestCartBadMeshPanics(t *testing.T) {
	m := sim.New(4, flatModel{})
	_, err := runWithin(t, m, func(p *sim.Proc) error {
		NewCart2D(World(p), 3, 2) // 6 != 4
		return nil
	})
	if err == nil {
		t.Fatalf("mismatched mesh did not error")
	}
}

func TestCollectiveTimingOrdering(t *testing.T) {
	// A bigger message must take at least as long to broadcast.
	bcastTime := func(elems int) float64 {
		var res *sim.Result
		res = runWorld(t, 8, func(c *Comm) error {
			var data []float64
			if c.Rank() == 0 {
				data = make([]float64, elems)
			}
			c.BcastInto(0, data)
			return nil
		})
		return res.MaxClock()
	}
	small, large := bcastTime(10), bcastTime(100000)
	if !(large > small) {
		t.Fatalf("bcast of 100k elems (%g s) not slower than 10 elems (%g s)", large, small)
	}
}

// TestCollectiveCostsPinned pins every operation's virtual finish time,
// message count and byte count on an 8-rank Paragon with 64-float buffers,
// for every root.  The figures were captured from the by-reference forms
// (Bcast, Reduce, Gatherv, ...) before they were deleted, so they are the
// proof that sending by value costs the model exactly what sending by
// reference did.
func TestCollectiveCostsPinned(t *testing.T) {
	const n, elems = 8, 64
	parts := func() [][]float64 {
		p := make([][]float64, n)
		for i := range p {
			p[i] = make([]float64, elems)
		}
		return p
	}
	for _, tc := range []struct {
		name   string
		rooted bool
		finish float64
		msgs   int64
		bytes  int64
		run    func(c *Comm, root int)
	}{
		{"SendrecvInto", false, 0x1.dcb66d89adb2p-13, 8, 4096, func(c *Comm, _ int) {
			c.SendrecvInto((c.Rank()+1)%n, 3, make([]float64, elems), (c.Rank()+n-1)%n, 3, nil)
		}},
		{"Barrier", false, 0x1.5a07b352a8439p-11, 24, 0, func(c *Comm, _ int) { c.Barrier() }},
		{"BcastInto", true, 0x1.6588d22742459p-11, 7, 3584, func(c *Comm, root int) {
			var buf []float64
			if c.Rank() == root {
				buf = make([]float64, elems)
			}
			c.BcastInto(root, buf)
		}},
		{"ReduceInto", true, 0x1.84fde2749763p-11, 7, 3584, func(c *Comm, root int) {
			c.ReduceInto(root, make([]float64, elems), nil, SumOp)
		}},
		{"AllreduceInto", false, 0x1.75435a4decd43p-10, 14, 7168, func(c *Comm, _ int) {
			c.AllreduceInto(make([]float64, elems), nil, SumOp)
		}},
		{"GathervInto", true, 0x1.33ebfd326a1dp-11, 7, 3584, func(c *Comm, root int) {
			c.GathervInto(root, make([]float64, elems), make([][]float64, n))
		}},
		{"ScattervInto", true, 0x1.33ebfd326a1dp-11, 7, 3584, func(c *Comm, root int) {
			c.ScattervInto(root, parts(), nil)
		}},
		{"AlltoallvInto", false, 0x1.b866e43aa79bep-11, 56, 28672, func(c *Comm, _ int) {
			c.AlltoallvInto(parts(), make([][]float64, n))
		}},
		{"AllgathervInto", false, 0x1.a11f9fd877fbbp-10, 56, 28672, func(c *Comm, _ int) {
			c.AllgathervInto(make([]float64, elems), make([][]float64, n))
		}},
		{"AllgathervTree", false, 0x1.a42dec08f0e45p-10, 21, 32704, func(c *Comm, _ int) {
			c.AllgathervTree(make([]float64, elems))
		}},
	} {
		roots := 1
		if tc.rooted {
			roots = n
		}
		for root := 0; root < roots; root++ {
			res, err := runWithin(t, sim.New(n, machine.Paragon()), func(p *sim.Proc) error {
				tc.run(World(p), root)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.MaxClock() != tc.finish || res.TotalMessages() != tc.msgs || res.TotalBytes() != tc.bytes {
				t.Errorf("%s root %d: finish %x, %d messages, %d bytes; pinned %x, %d, %d", tc.name, root,
					res.MaxClock(), res.TotalMessages(), res.TotalBytes(), tc.finish, tc.msgs, tc.bytes)
			}
		}
	}
}

func TestReduceChargesComputeTime(t *testing.T) {
	res := runWorld(t, 2, func(c *Comm) error {
		c.ReduceInto(0, make([]float64, 1000), nil, SumOp)
		return nil
	})
	// Root combined one 1000-element vector: >= 1000 flops of virtual time.
	if res.Clocks[0] < 1000*1e-7 {
		t.Fatalf("root clock %g too small; reduce arithmetic not charged", res.Clocks[0])
	}
}

func TestWorldRankOutOfRangePanics(t *testing.T) {
	m := sim.New(2, flatModel{})
	_, err := runWithin(t, m, func(p *sim.Proc) error {
		World(p).WorldRank(7)
		return nil
	})
	if err == nil {
		t.Fatalf("WorldRank(7) on size-2 comm did not error")
	}
}

func TestMessageComplexityFormulas(t *testing.T) {
	// The paper's Section 3 reasons about algorithms by their message
	// counts; the simulator's counters must match the closed forms.
	count := func(n int, body func(c *Comm)) int64 {
		m := sim.New(n, flatModel{})
		res, err := runWithin(t, m, func(p *sim.Proc) error {
			body(World(p))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalMessages()
	}
	const n = 8
	data := make([]float64, 10)

	// Ring allgather: every rank forwards P-1 times -> P*(P-1).
	if got := count(n, func(c *Comm) { c.AllgathervInto(data, make([][]float64, n)) }); got != n*(n-1) {
		t.Errorf("ring allgather: %d messages, want %d", got, n*(n-1))
	}
	// Alltoallv: every rank sends to P-1 others.
	if got := count(n, func(c *Comm) {
		parts := make([][]float64, n)
		for i := range parts {
			parts[i] = data
		}
		c.AlltoallvInto(parts, make([][]float64, n))
	}); got != n*(n-1) {
		t.Errorf("alltoallv: %d messages, want %d", got, n*(n-1))
	}
	// Binomial broadcast: P-1 messages total.
	if got := count(n, func(c *Comm) {
		var d []float64
		if c.Rank() == 0 {
			d = data
		}
		c.BcastInto(0, d)
	}); got != n-1 {
		t.Errorf("bcast: %d messages, want %d", got, n-1)
	}
	// Binomial reduce: P-1 messages total.
	if got := count(n, func(c *Comm) { c.ReduceInto(0, data, nil, SumOp) }); got != n-1 {
		t.Errorf("reduce: %d messages, want %d", got, n-1)
	}
	// Dissemination barrier: P * ceil(log2 P).
	if got := count(n, func(c *Comm) { c.Barrier() }); got != n*3 {
		t.Errorf("barrier: %d messages, want %d", got, n*3)
	}
	// Tree allgather = gather (P-1) + two broadcasts (2*(P-1)).
	if got := count(n, func(c *Comm) { c.AllgathervTree(data) }); got != 3*(n-1) {
		t.Errorf("tree allgather: %d messages, want %d", got, 3*(n-1))
	}
}

func TestAllreduceVectorAssociativityInvariant(t *testing.T) {
	// Allreduce result must be identical on all ranks and independent of
	// which rank contributed what order — verify against a serial sum.
	const n = 9
	want := make([]float64, 4)
	for r := 0; r < n; r++ {
		for i := range want {
			want[i] += float64(r*i) + 0.25
		}
	}
	runWorld(t, n, func(c *Comm) error {
		mine := make([]float64, 4)
		for i := range mine {
			mine[i] = float64(c.Rank()*i) + 0.25
		}
		got := c.AllreduceInto(mine, nil, SumOp)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				return fmt.Errorf("rank %d element %d: got %g want %g", c.Rank(), i, got[i], want[i])
			}
		}
		return nil
	})
}
