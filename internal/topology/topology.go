// Package topology models the physical interconnects of the paper's
// machines — the Intel Paragon's 2-D mesh, the Cray T3D's 3-D torus and the
// IBM SP-2's multistage switch — and makes rank placement and link
// contention first-class experimental variables.
//
// A Topology maps physical node indices to directed links and expands a
// (source node, destination node) pair into the link path taken by
// dimension-ordered wormhole routing.  A Placement maps simulator ranks onto
// physical nodes, so the same logical process mesh can be laid out
// differently on the hardware.  A Network combines the two with a machine
// model into a sim.RouteModel: per-message in-flight times that depend on
// hop count and injection-port pipelining.  A separate replay arbiter
// (Contend) serializes the logged transfers on shared links in virtual time
// with deterministic tie-breaking; its report is the one per-link ledger of
// transfers, bytes, busy time and stall time.
//
// Determinism: every method here is either a pure function of its arguments
// or touches only per-source-rank state from that rank's own goroutine, so
// simulated runs stay bit-identical no matter how the Go scheduler
// interleaves ranks (see the sim package's determinism contract).
package topology

import (
	"fmt"
	"sort"
	"strings"
)

// Topology describes one interconnect: a set of physical nodes joined by
// directed links, plus the deterministic route between any node pair.
type Topology interface {
	// Name identifies the topology in reports, e.g. "2-D mesh 8x4".
	Name() string
	// Nodes returns the number of physical nodes.
	Nodes() int
	// NumLinks returns the number of directed links; link ids are dense in
	// [0, NumLinks).
	NumLinks() int
	// LinkName describes a link id for reports, e.g. "(2,1)->(3,1)".
	LinkName(id int) string
	// Route appends the directed link ids of the canonical (dimension-
	// ordered) path from node a to node b to buf and returns it.  The
	// route for a == b is empty.  Route must be a pure function.
	Route(a, b int, buf []int) []int
}

// ByName builds a topology from a command-line name for a machine with the
// given node count.  Accepted names:
//
//	none            no topology (callers should skip the route model)
//	mesh            2-D mesh, near-square factorization (Paragon)
//	torus           3-D torus, near-cubic factorization (T3D)
//	switch          multistage crossbar switch (SP-2)
//	auto            pick by machine model name (see Auto)
//
// Explicit extents are accepted as mesh:XxY and torus:XxYxZ.
func ByName(name, machineName string, nodes int) (Topology, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	switch name {
	case "", "none":
		return nil, nil
	case "auto":
		return Auto(machineName, nodes)
	case "switch":
		return NewMultistage(nodes, 8)
	}
	for _, kind := range [...]struct {
		name string
		dims int
		wrap bool
	}{{"mesh", 2, false}, {"torus", 3, true}} {
		if name == kind.name {
			return NewGrid(kind.wrap, factor(nodes, kind.dims)...)
		}
		spec, ok := strings.CutPrefix(name, kind.name+":")
		if !ok {
			continue
		}
		ext, args := make([]int, kind.dims), make([]any, kind.dims)
		for d := range ext {
			args[d] = &ext[d]
		}
		if _, err := fmt.Sscanf(spec, strings.Repeat("%dx", kind.dims-1)+"%d", args...); err != nil {
			return nil, fmt.Errorf("topology: invalid %s extents %q (want %s:%s)",
				kind.name, name, kind.name, "XxYxZ"[:2*kind.dims-1])
		}
		if !fills(nodes, ext...) {
			return nil, fmt.Errorf("topology: %s %s does not have %d nodes", kind.name, join(ext, "x"), nodes)
		}
		return NewGrid(kind.wrap, ext...)
	}
	return nil, fmt.Errorf("topology: unknown topology %q (none, auto, mesh[:XxY], torus[:XxYxZ], switch)", name)
}

// fills reports whether the extents, each at least 1, multiply to exactly
// nodes.  It divides instead of multiplying, so extents whose product
// overflows int cannot wrap around to nodes.
func fills(nodes int, extents ...int) bool {
	for _, e := range extents {
		if e < 1 || nodes%e != 0 {
			return false
		}
		nodes /= e
	}
	return nodes == 1
}

// autoTopology names each machine's historical interconnect, found by a
// substring of the lower-cased machine name: mesh for the Paragon, torus
// for the T3D, switch for the SP-2.
var autoTopology = [...]struct{ machine, topology string }{
	{"paragon", "mesh"}, {"t3d", "torus"}, {"sp-2", "switch"}, {"sp2", "switch"},
}

// Auto picks the historically accurate topology for a machine model name
// (see autoTopology).
func Auto(machineName string, nodes int) (Topology, error) {
	n := strings.ToLower(machineName)
	for _, a := range autoTopology {
		if strings.Contains(n, a.machine) {
			return ByName(a.topology, "", nodes)
		}
	}
	return nil, fmt.Errorf("topology: no default topology for machine %q (use mesh, torus or switch explicitly)", machineName)
}

// factor splits n into k extents, largest first, as near equal as n's
// divisors allow: one extent is n's largest divisor f with f^k <= n, and
// the other k-1 factor n/f the same way.
func factor(n, k int) []int {
	if k == 1 {
		return []int{n}
	}
	f := 1
	for d := 2; pow(d, k) <= n; d++ {
		if n%d == 0 {
			f = d
		}
	}
	ext := append(factor(n/f, k-1), f)
	sort.Sort(sort.Reverse(sort.IntSlice(ext)))
	return ext
}

func pow(d, k int) int {
	p := 1
	for ; k > 0; k-- {
		p *= d
	}
	return p
}
