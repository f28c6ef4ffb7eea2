package topology

import (
	"math"
	"reflect"
	"testing"

	"agcm/internal/machine"
)

func TestFactorizations(t *testing.T) {
	cases := []struct{ n, x, y int }{
		{1, 1, 1}, {2, 2, 1}, {12, 4, 3}, {16, 4, 4}, {32, 8, 4}, {240, 16, 15}, {7, 7, 1},
	}
	for _, c := range cases {
		if got := factor(c.n, 2); !reflect.DeepEqual(got, []int{c.x, c.y}) {
			t.Errorf("factor(%d, 2) = %v, want %dx%d", c.n, got, c.x, c.y)
		}
	}
	cases3 := []struct{ n, x, y, z int }{
		{8, 2, 2, 2}, {64, 4, 4, 4}, {24, 4, 3, 2}, {30, 5, 3, 2}, {7, 7, 1, 1},
	}
	for _, c := range cases3 {
		if got := factor(c.n, 3); !reflect.DeepEqual(got, []int{c.x, c.y, c.z}) {
			t.Errorf("factor(%d, 3) = %v, want %dx%dx%d", c.n, got, c.x, c.y, c.z)
		}
	}
}

func TestByName(t *testing.T) {
	if topo, err := ByName("none", "", 8); err != nil || topo != nil {
		t.Fatalf("ByName(none) = %v, %v; want nil, nil", topo, err)
	}
	topo, err := ByName("mesh:4x2", "", 8)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Name() != "2-D mesh 4x2" {
		t.Fatalf("ByName(mesh:4x2) = %v", topo)
	}
	if _, err := ByName("mesh:3x2", "", 8); err == nil {
		t.Fatal("mesh:3x2 for 8 nodes should fail")
	}
	if _, err := ByName("warp", "", 8); err == nil {
		t.Fatal("unknown topology should fail")
	}
	if topo, err := ByName("torus:2x1x4", "", 8); err != nil || topo.Nodes() != 8 {
		t.Fatalf("ByName(torus:2x1x4) = %v, %v", topo, err)
	}
	for _, name := range []string{"mesh:-2x-4", "mesh:0x8", "torus:2x2x3", "torus:-1x-8x1"} {
		if _, err := ByName(name, "", 8); err == nil {
			t.Errorf("%s for 8 nodes should fail", name)
		}
	}
	for name, want := range map[string]string{
		"Intel Paragon": "2-D mesh",
		"Cray T3D":      "3-D torus",
		"IBM SP-2":      "multistage switch",
	} {
		topo, err := Auto(name, 8)
		if err != nil {
			t.Fatalf("Auto(%q): %v", name, err)
		}
		if got := topo.Name(); len(got) < len(want) || got[:len(want)] != want {
			t.Errorf("Auto(%q) = %q, want %q...", name, got, want)
		}
	}
	if _, err := Auto("Connection Machine", 8); err == nil {
		t.Fatal("Auto on unknown machine should fail")
	}
}

// checkRoutes verifies the structural route invariants every topology must
// satisfy: empty self-routes, valid link ids, and consecutive links that
// chain head to tail from a's node to b's (mesh/torus only — the switch's
// links are stage wires, not node pairs).
func checkRouteIDs(t *testing.T, topo Topology) {
	t.Helper()
	n := topo.Nodes()
	for a := 0; a < n; a++ {
		if got := topo.Route(a, a, nil); len(got) != 0 {
			t.Fatalf("%s: Route(%d,%d) = %v, want empty", topo.Name(), a, a, got)
		}
		for b := 0; b < n; b++ {
			for _, l := range topo.Route(a, b, nil) {
				if l < 0 || l >= topo.NumLinks() {
					t.Fatalf("%s: Route(%d,%d) uses invalid link %d", topo.Name(), a, b, l)
				}
			}
		}
	}
}

// TestByNameRejectsOverflowingExtents: 274177 * 67280421310721 = 2^64 + 1,
// which wraps to 1 in int arithmetic.  The extents must be refused for a
// one-node machine instead of building a mesh of 1.8e19 nodes.
func TestByNameRejectsOverflowingExtents(t *testing.T) {
	for _, name := range []string{
		"mesh:274177x67280421310721",
		"torus:274177x67280421310721x1",
		"torus:1x274177x67280421310721",
	} {
		if topo, err := ByName(name, "", 1); err == nil {
			t.Errorf("ByName(%q, 1 node) = %s, want an error", name, topo.Name())
		}
	}
}

// linkID returns the id of g's directed link from -> to.
func linkID(t *testing.T, g *Grid, from, to int) int {
	t.Helper()
	for id, e := range g.ends {
		if e == [2]int{from, to} {
			return id
		}
	}
	t.Fatalf("%s: no link %d->%d", g.Name(), from, to)
	return -1
}

func grid(t *testing.T, wrap bool, extents ...int) *Grid {
	t.Helper()
	g, err := NewGrid(wrap, extents...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMeshRouting(t *testing.T) {
	m := grid(t, false, 4, 3)
	node := func(x, y int) int { return y*4 + x }
	// 2*((NX-1)*NY + NX*(NY-1)) directed links.
	if got, want := m.NumLinks(), 2*(3*3+4*2); got != want {
		t.Fatalf("NumLinks = %d, want %d", got, want)
	}
	checkRouteIDs(t, m)
	// Manhattan distance, X first: (0,0) -> (3,2) is 3 X-hops then 2 Y-hops.
	path := m.Route(node(0, 0), node(3, 2), nil)
	if len(path) != 5 {
		t.Fatalf("route length %d, want 5", len(path))
	}
	// The first three links are the +x row links numbered first.
	wantPrefix := []int{
		linkID(t, m, node(0, 0), node(1, 0)),
		linkID(t, m, node(1, 0), node(2, 0)),
		linkID(t, m, node(2, 0), node(3, 0)),
	}
	if !reflect.DeepEqual(path[:3], wantPrefix) {
		t.Fatalf("X-first prefix = %v, want %v", path[:3], wantPrefix)
	}
	// Reverse direction uses the opposite directed links: disjoint ids.
	rev := m.Route(node(3, 2), node(0, 0), nil)
	for _, l := range rev {
		for _, f := range path {
			if l == f {
				t.Fatalf("forward and reverse routes share directed link %d", l)
			}
		}
	}
	if _, err := NewGrid(false, 4, 0); err == nil {
		t.Fatal("a zero extent should fail")
	}
	if _, err := NewGrid(true); err == nil {
		t.Fatal("a grid of no dimensions should fail")
	}
}

func TestTorusRouting(t *testing.T) {
	to := grid(t, true, 4, 3, 2)
	node := func(x, y, z int) int { return (z*3+y)*4 + x }
	checkRouteIDs(t, to)
	// Wraparound: x=0 -> x=3 on a 4-ring is one -x hop, not three +x hops.
	if got := to.Route(node(0, 0, 0), node(3, 0, 0), nil); len(got) != 1 {
		t.Fatalf("wrap route length %d, want 1", len(got))
	}
	// Tie on an even ring goes the positive way: 0 -> 2 on a 4-ring.
	path := to.Route(node(0, 0, 0), node(2, 0, 0), nil)
	if len(path) != 2 {
		t.Fatalf("tie route length %d, want 2", len(path))
	}
	if want := linkID(t, to, node(0, 0, 0), node(1, 0, 0)); path[0] != want {
		t.Fatalf("tie should break +x: first link %d, want %d", path[0], want)
	}
	// Extent-2 Z dimension: one hop either way, over the one link each way.
	if got := to.Route(node(0, 0, 0), node(0, 0, 1), nil); len(got) != 1 {
		t.Fatalf("z route length %d, want 1", len(got))
	}
	// Dimension order X, Y, Z: (1,2,1) from origin = 1 + 1 + 1 hops.
	if got := to.Route(node(0, 0, 0), node(1, 2, 1), nil); len(got) != 3 {
		t.Fatalf("diagonal route length %d, want 3", len(got))
	}
	// Two links per node along each of x and y, one along the extent-2 z
	// ring.
	if got, want := to.NumLinks(), 24*5; got != want {
		t.Fatalf("NumLinks = %d, want %d", got, want)
	}
}

// TestRingStep: a torus steps each ring the shorter way round, ties going
// the + way.
func TestRingStep(t *testing.T) {
	for _, c := range []struct{ n, a, b, first int }{
		{4, 0, 1, 1}, {4, 0, 3, 3}, {4, 0, 2, 1}, {5, 2, 0, 1}, {5, 0, 2, 1},
	} {
		ring := grid(t, true, c.n)
		if got := ring.Route(c.a, c.b, nil); ring.ends[got[0]][1] != c.first {
			t.Errorf("%d-ring %d->%d steps to %d first, want %d", c.n, c.a, c.b, ring.ends[got[0]][1], c.first)
		}
	}
}

func TestMultistageRouting(t *testing.T) {
	s, err := NewMultistage(30, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stages != 2 || s.Width != 64 {
		t.Fatalf("30 nodes radix 8: %d stages width %d, want 2 stages width 64", s.Stages, s.Width)
	}
	checkRouteIDs(t, s)
	for a := 0; a < s.N; a++ {
		for b := 0; b < s.N; b++ {
			if a == b {
				continue
			}
			path := s.Route(a, b, nil)
			if len(path) != s.Stages {
				t.Fatalf("Route(%d,%d) length %d, want %d", a, b, len(path), s.Stages)
			}
			// The final wire is the destination's ejection port.
			if got, want := path[len(path)-1], (s.Stages-1)*s.Width+b; got != want {
				t.Fatalf("Route(%d,%d) last wire %d, want ejection port %d", a, b, got, want)
			}
		}
	}
	if _, err := NewMultistage(8, 3); err == nil {
		t.Fatal("non-power-of-two radix should fail")
	}
}

func checkBijection(t *testing.T, p Placement, n int) {
	t.Helper()
	seen := make([]bool, n)
	for r := 0; r < n; r++ {
		nd := p.Node(r)
		if nd < 0 || nd >= n || seen[nd] {
			t.Fatalf("%s: not a bijection at rank %d (node %d)", p.Name(), r, nd)
		}
		seen[nd] = true
	}
}

func TestPlacements(t *testing.T) {
	m, to := grid(t, false, 4, 3), grid(t, true, 4, 3, 2)
	s, _ := NewMultistage(12, 4)
	for _, topo := range []Topology{m, to, s} {
		for _, mk := range []func(Topology) (Placement, error){Snake, Blocked} {
			p, err := mk(topo)
			if err != nil {
				t.Fatalf("%s: %v", topo.Name(), err)
			}
			checkBijection(t, p, topo.Nodes())
		}
	}
	// Snake on a mesh keeps consecutive ranks on adjacent nodes.
	snake, _ := Snake(m)
	for r := 0; r+1 < m.Nodes(); r++ {
		if hops := len(m.Route(snake.Node(r), snake.Node(r+1), nil)); hops != 1 {
			t.Fatalf("snake ranks %d,%d are %d hops apart", r, r+1, hops)
		}
	}
	// Blocked on a 4x3 mesh: ranks 0-3 fill the 2x2 corner block.
	blocked, _ := Blocked(m)
	want := []int{0, 1, 4, 5}
	for r, nd := range want {
		if blocked.Node(r) != nd {
			t.Fatalf("blocked rank %d on node %d, want %d", r, blocked.Node(r), nd)
		}
	}

	if _, err := NewPermutation("bad", []int{0, 0, 2}); err == nil {
		t.Fatal("duplicate node should fail")
	}
	if _, err := NewPermutation("bad", []int{0, 3}); err == nil {
		t.Fatal("out-of-range node should fail")
	}

	p, err := PlacementByName("perm:3,2,1,0", grid(t, false, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if p.Node(0) != 3 || p.Node(3) != 0 {
		t.Fatalf("perm placement wrong: %d, %d", p.Node(0), p.Node(3))
	}
	if _, err := PlacementByName("perm:0,1", m); err == nil {
		t.Fatal("short permutation should fail")
	}
	if _, err := PlacementByName("spiral", m); err == nil {
		t.Fatal("unknown placement should fail")
	}
	if p, err := PlacementByName("", m); err != nil || p.Name() != "row-major" {
		t.Fatalf("empty placement = %v, %v", p, err)
	}
}

// testNetwork is a row-major 4x2 mesh of 80 us startup, 10 us per hop and
// 10 MB/s links.
func testNetwork(t *testing.T) *Network {
	t.Helper()
	mod := *machine.Paragon()
	mod.Latency, mod.Bandwidth = 80e-6, 10e6
	n, err := NewNetwork(grid(t, false, 4, 2), RowMajor(), &mod)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNetworkRouteSeconds(t *testing.T) {
	n := testNetwork(t)
	// First send from an idle NIC: no queueing.
	// 0 -> 3 is 3 hops; 1000 bytes at 10 MB/s = 100 us serialization.
	got := n.RouteSeconds(0, 3, 1000, 0)
	want := 80e-6 + 3*10e-6 + 100e-6
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("RouteSeconds = %g, want %g", got, want)
	}
	// Second send at the same instant queues behind the first's injection:
	// the NIC is busy for 100 us.
	got2 := n.RouteSeconds(0, 7, 1000, 0)
	want2 := 100e-6 + (80e-6 + 4*10e-6 + 100e-6)
	if math.Abs(got2-want2) > 1e-15 {
		t.Fatalf("queued RouteSeconds = %g, want %g", got2, want2)
	}
	// A send after the NIC drained sees no queue.
	got3 := n.RouteSeconds(0, 1, 1000, 1.0)
	want3 := 80e-6 + 1*10e-6 + 100e-6
	if math.Abs(got3-want3) > 1e-15 {
		t.Fatalf("idle RouteSeconds = %g, want %g", got3, want3)
	}

	// The replay of the same three messages is the link ledger:
	// 3 + 4 + 1 link crossings, 1000 bytes each.
	rep, err := n.Contend([]Transfer{
		{Src: 0, Dst: 3, Bytes: 1000, Start: 0, Seq: 1},
		{Src: 0, Dst: 7, Bytes: 1000, Start: 0, Seq: 2},
		{Src: 0, Dst: 1, Bytes: 1000, Start: 1.0, Seq: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	var msgs int
	var bytes int64
	for _, l := range rep.Links {
		msgs += l.Transfers
		bytes += l.Bytes
	}
	if msgs != 8 || bytes != 8000 {
		t.Fatalf("replay links total %d msgs %d bytes, want 8 msgs 8000 bytes", msgs, bytes)
	}
}

func TestNetworkValidation(t *testing.T) {
	m := grid(t, false, 2, 2)
	mod := machine.Paragon()
	zero := *mod
	zero.Bandwidth = 0
	if _, err := NewNetwork(m, RowMajor(), &zero); err == nil {
		t.Fatal("zero bandwidth should fail")
	}
	bad, _ := NewPermutation("bad-size", []int{0, 1})
	if _, err := NewNetwork(m, bad, mod); err == nil {
		t.Fatal("undersized placement should fail")
	}
	if _, err := NewNetwork(m, &permutation{name: "dup", nodes: []int{0, 1, 1, 3}}, mod); err == nil {
		t.Fatal("a placement that is not a bijection should fail")
	}
	n, err := NewNetwork(m, nil, mod)
	if err != nil {
		t.Fatal(err)
	}
	if n.Placement().Name() != "row-major" {
		t.Fatal("nil placement should default to row-major")
	}
	// The flat latency is the startup, an eighth of it the
	// per-hop delay, and the flat bandwidth drives the link.
	got := n.RouteSeconds(0, 1, 1000, 0)
	if want := mod.Latency + mod.Latency/8 + 1000/mod.Bandwidth; got != want {
		t.Fatalf("one-hop RouteSeconds = %g, want %g from the model's latency and bandwidth", got, want)
	}
}

func TestHops(t *testing.T) {
	m := grid(t, false, 2, 2)
	n, err := NewNetwork(m, RowMajor(), machine.Paragon())
	if err != nil {
		t.Fatal(err)
	}
	// 2x2 mesh: 8 ordered pairs at 1 hop, 4 at 2 hops.
	var hist [3]int
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a != b {
				hist[n.Hops(a, b)]++
			}
		}
	}
	if hist != [3]int{0, 8, 4} {
		t.Fatalf("hop histogram %v, want [0 8 4]", hist)
	}
	// Hops follows the placement: ranks 0 and 3 are the far corners under
	// row-major and neighbours under a permutation that swaps nodes 2 and 3.
	swap, _ := NewPermutation("swap", []int{0, 1, 3, 2})
	ns, err := NewNetwork(m, swap, machine.Paragon())
	if err != nil {
		t.Fatal(err)
	}
	if n.Hops(0, 3) != 2 || ns.Hops(0, 3) != 1 {
		t.Fatalf("Hops(0,3) = %d row-major, %d swapped; want 2, 1", n.Hops(0, 3), ns.Hops(0, 3))
	}
}

func TestContend(t *testing.T) {
	n := testNetwork(t)
	ser := 100e-6 // 1000 bytes at 10 MB/s

	// Two transfers both crossing link (1,0)->(2,0) at t=0: the later one
	// (tie broken by src) stalls for one serialization time.
	transfers := []Transfer{
		{Src: 1, Dst: 3, Bytes: 1000, Start: 0, Seq: 1},
		{Src: 0, Dst: 2, Bytes: 1000, Start: 0, Seq: 1},
	}
	rep, err := n.Contend(transfers)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transfers != 2 {
		t.Fatalf("Transfers = %d", rep.Transfers)
	}
	if math.Abs(rep.TotalStallSeconds-ser) > 1e-15 {
		t.Fatalf("TotalStall = %g, want %g", rep.TotalStallSeconds, ser)
	}
	if math.Abs(rep.MaxStallSeconds-ser) > 1e-15 {
		t.Fatalf("MaxStall = %g, want %g", rep.MaxStallSeconds, ser)
	}
	// Last byte leaves at 2 serializations (second transfer queued).
	if math.Abs(rep.FinishSeconds-2*ser) > 1e-15 {
		t.Fatalf("Finish = %g, want %g", rep.FinishSeconds, 2*ser)
	}

	// The report is a pure function of the transfer set: input order must
	// not matter.
	rep2, err := n.Contend([]Transfer{transfers[1], transfers[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Fatal("Contend depends on input order")
	}

	// Disjoint routes never stall.
	rep3, err := n.Contend([]Transfer{
		{Src: 0, Dst: 1, Bytes: 1000, Start: 0, Seq: 1},
		{Src: 4, Dst: 5, Bytes: 1000, Start: 0, Seq: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep3.TotalStallSeconds != 0 {
		t.Fatalf("disjoint transfers stalled %g", rep3.TotalStallSeconds)
	}

	hot := rep.MostContended(1)
	if len(hot) != 1 || hot[0].StallSeconds == 0 {
		t.Fatalf("MostContended = %+v", hot)
	}

	if _, err := n.Contend([]Transfer{{Src: 0, Dst: 99, Bytes: 1, Seq: 1}}); err == nil {
		t.Fatal("out-of-range transfer should fail")
	}
}
