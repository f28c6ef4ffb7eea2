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
	switch {
	case name == "" || name == "none":
		return nil, nil
	case name == "auto":
		return Auto(machineName, nodes)
	case name == "mesh":
		return NewMesh2D(factor2(nodes))
	case name == "torus":
		x, y, z := factor3(nodes)
		return NewTorus3D(x, y, z)
	case name == "switch":
		return NewMultistage(nodes, 8)
	case strings.HasPrefix(name, "mesh:"):
		var x, y int
		if _, err := fmt.Sscanf(name[len("mesh:"):], "%dx%d", &x, &y); err != nil {
			return nil, fmt.Errorf("topology: invalid mesh extents %q (want mesh:XxY)", name)
		}
		if !fills(nodes, x, y) {
			return nil, fmt.Errorf("topology: mesh %dx%d does not have %d nodes", x, y, nodes)
		}
		return NewMesh2D(x, y)
	case strings.HasPrefix(name, "torus:"):
		var x, y, z int
		if _, err := fmt.Sscanf(name[len("torus:"):], "%dx%dx%d", &x, &y, &z); err != nil {
			return nil, fmt.Errorf("topology: invalid torus extents %q (want torus:XxYxZ)", name)
		}
		if !fills(nodes, x, y, z) {
			return nil, fmt.Errorf("topology: torus %dx%dx%d does not have %d nodes", x, y, z, nodes)
		}
		return NewTorus3D(x, y, z)
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

// Auto picks the historically accurate topology for a machine model name:
// mesh for the Paragon, torus for the T3D, switch for the SP-2.
func Auto(machineName string, nodes int) (Topology, error) {
	n := strings.ToLower(machineName)
	switch {
	case strings.Contains(n, "paragon"):
		return NewMesh2D(factor2(nodes))
	case strings.Contains(n, "t3d"):
		x, y, z := factor3(nodes)
		return NewTorus3D(x, y, z)
	case strings.Contains(n, "sp-2"), strings.Contains(n, "sp2"):
		return NewMultistage(nodes, 8)
	}
	return nil, fmt.Errorf("topology: no default topology for machine %q (use mesh, torus or switch explicitly)", machineName)
}

// factor2 splits n into the most square X x Y factorization with X >= Y.
func factor2(n int) (x, y int) {
	y = 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			y = d
		}
	}
	return n / y, y
}

// factor3 splits n into a near-cubic X x Y x Z factorization (X >= Y >= Z).
func factor3(n int) (x, y, z int) {
	z = 1
	for d := 2; d*d*d <= n; d++ {
		if n%d == 0 {
			z = d
		}
	}
	x, y = factor2(n / z)
	if y < z {
		y, z = z, y
	}
	if x < y {
		x, y = y, x
	}
	return x, y, z
}
