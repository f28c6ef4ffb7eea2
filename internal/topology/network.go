package topology

import (
	"fmt"

	"agcm/internal/machine"
)

// srcState is the per-source-rank mutable state of a Network.  Each srcState
// is touched exclusively by the goroutine simulating that rank, which is
// what keeps the concurrent route model deterministic and race-free.
type srcState struct {
	nicFreeAt float64 // virtual time the injection port finishes its last send
	path      []int   // reusable route scratch
	_         [4]int64
}

// Network is a deterministic route-aware interconnect model: it implements
// sim.RouteModel by expanding every message into its dimension-ordered link
// path under a placement, charging hop latency and injection-port
// pipelining.  It keeps no per-link ledger: Contend replays the run's
// message log and is the one source of per-link traffic, busy time and
// stall time.
//
// The in-flight time it returns is congestion-free between senders (each
// message sees empty links); cross-sender link contention is resolved
// afterwards, deterministically, by that replay.  Modelling shared-link
// queueing online would require reading state written concurrently by other
// ranks' goroutines, making virtual time depend on the host scheduler —
// exactly what the simulator's bit-reproducibility guarantee forbids.
type Network struct {
	topo  Topology
	place Placement
	// base is the distance-independent per-message startup, hop the
	// routing delay per traversed link, and bw the bandwidth of one link
	// and of a node's injection port.
	base, hop, bw float64
	src           []srcState // per source rank
}

// NewNetwork builds a route model for a machine of ranks == topo.Nodes()
// processes placed by place (nil is row-major).  It splits the flat
// machine model's per-message cost into a startup, a per-hop delay, link
// serialization and injection-port pipelining: the flat latency becomes
// the startup, one eighth of it the per-hop delay (so a route across a
// 240-node Paragon mesh roughly doubles the base latency, matching the
// era's hop-dominated long routes), and the flat bandwidth drives both the
// links and the injection port.
func NewNetwork(topo Topology, place Placement, m *machine.Model) (*Network, error) {
	if topo == nil {
		return nil, fmt.Errorf("topology: nil topology")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if place == nil {
		place = RowMajor()
	}
	n := topo.Nodes()
	// The placement must be a bijection of [0, n): walk it once.
	if p, ok := place.(*permutation); ok && len(p.nodes) != n {
		return nil, fmt.Errorf("topology: placement %s covers %d nodes, machine has %d",
			p.name, len(p.nodes), n)
	}
	seen := make([]bool, n)
	for r := 0; r < n; r++ {
		nd := place.Node(r)
		if nd < 0 || nd >= n || seen[nd] {
			return nil, fmt.Errorf("topology: placement %s is not a bijection at rank %d (node %d)",
				place.Name(), r, nd)
		}
		seen[nd] = true
	}
	return &Network{
		topo:  topo,
		place: place,
		base:  m.Latency,
		hop:   m.Latency / 8,
		bw:    m.Bandwidth,
		src:   make([]srcState, n),
	}, nil
}

// Topology returns the modelled interconnect.
func (n *Network) Topology() Topology { return n.topo }

// Placement returns the rank layout.
func (n *Network) Placement() Placement { return n.place }

// RouteSeconds implements sim.RouteModel: the in-flight time of a message
// injected by world rank src at virtual time now.  It is called concurrently
// from every rank's goroutine but writes only n.src[src] — the source's NIC
// clock and route scratch — so results are independent of goroutine
// interleaving.
func (n *Network) RouteSeconds(src, dst, bytes int, now float64) float64 {
	s := &n.src[src]
	s.path = n.topo.Route(n.place.Node(src), n.place.Node(dst), s.path[:0])
	inj := float64(bytes) / n.bw

	// Injection pipelining: eager sends are free for the sender's CPU, but
	// the node's network port pushes them out one at a time.  A burst of
	// P-1 transpose messages therefore leaves the node back to back — the
	// serialization the paper's all-to-all analysis counts.
	start := now
	if s.nicFreeAt > start {
		start = s.nicFreeAt
	}
	s.nicFreeAt = start + inj
	queue := start - now

	return queue + n.base + float64(len(s.path))*n.hop + inj
}

// Hops returns the number of links on the route between two ranks' nodes.
func (n *Network) Hops(src, dst int) int {
	return len(n.topo.Route(n.place.Node(src), n.place.Node(dst), nil))
}
