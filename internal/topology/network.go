package topology

import (
	"fmt"

	"agcm/internal/machine"
)

// Params calibrate the routed network model against a flat machine model.
// The flat model charges Latency + bytes/Bandwidth per message regardless of
// distance; the routed model splits the same quantities into a startup term,
// a per-hop router delay, link serialization, and injection-port pipelining.
type Params struct {
	// BaseSeconds is the distance-independent per-message startup
	// (message-passing software, packetization).
	BaseSeconds float64
	// HopSeconds is the routing delay per traversed link: switch
	// arbitration plus channel setup for the wormhole head flit.
	HopSeconds float64
	// LinkBytesPerSec is the bandwidth of one link.
	LinkBytesPerSec float64
	// InjectBytesPerSec is the node-to-network injection bandwidth: a
	// node's back-to-back sends serialize at this rate even when their
	// routes never share a link.
	InjectBytesPerSec float64
}

// DefaultParams derives routed-network parameters from a flat machine
// model: the flat latency becomes the startup term, one eighth of it the
// per-hop delay (so a route across a 240-node Paragon mesh roughly doubles
// the base latency, matching the era's hop-dominated long routes), and the
// flat bandwidth is used for both the links and the injection port.
func DefaultParams(m *machine.Model) Params {
	return Params{
		BaseSeconds:       m.Latency,
		HopSeconds:        m.Latency / 8,
		LinkBytesPerSec:   m.Bandwidth,
		InjectBytesPerSec: m.Bandwidth,
	}
}

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
	topo   Topology
	place  Placement
	par    Params
	ranks  int
	nlinks int
	src    []srcState
}

// NewNetwork builds a route model for a machine of ranks == topo.Nodes()
// processes placed by place, with parameters derived from m (see
// DefaultParams).  Use NewNetworkParams for explicit calibration.
func NewNetwork(topo Topology, place Placement, m *machine.Model) (*Network, error) {
	return NewNetworkParams(topo, place, DefaultParams(m))
}

// NewNetworkParams builds a route model with explicit parameters.
func NewNetworkParams(topo Topology, place Placement, par Params) (*Network, error) {
	if topo == nil {
		return nil, fmt.Errorf("topology: nil topology")
	}
	if place == nil {
		place = RowMajor()
	}
	if par.LinkBytesPerSec <= 0 || par.InjectBytesPerSec <= 0 {
		return nil, fmt.Errorf("topology: link and injection bandwidth must be positive")
	}
	if par.BaseSeconds < 0 || par.HopSeconds < 0 {
		return nil, fmt.Errorf("topology: latencies must be non-negative")
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
		topo:   topo,
		place:  place,
		par:    par,
		ranks:  n,
		nlinks: topo.NumLinks(),
		src:    make([]srcState, n),
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
	inj := float64(bytes) / n.par.InjectBytesPerSec

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

	return queue + n.par.BaseSeconds + float64(len(s.path))*n.par.HopSeconds +
		float64(bytes)/n.par.LinkBytesPerSec
}

// Hops returns the number of links on the route between two ranks' nodes.
func (n *Network) Hops(src, dst int) int {
	return len(n.topo.Route(n.place.Node(src), n.place.Node(dst), nil))
}
