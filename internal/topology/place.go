package topology

import (
	"fmt"
	"strconv"
	"strings"
)

// Placement maps simulator world ranks onto physical nodes.  The mapping
// must be a bijection from [0, Nodes) to [0, Nodes): every rank gets its own
// node, as on the paper's machines (one AGCM process per node).
type Placement interface {
	// Name identifies the policy in reports.
	Name() string
	// Node returns the physical node hosting the given world rank.
	Node(rank int) int
}

// rowMajor places rank r on node r — the submission-order default of
// space-sharing schedulers, and the layout under which the AGCM's row-major
// process mesh lines up with a row-major machine mesh.
type rowMajor struct{}

func (rowMajor) Name() string      { return "row-major" }
func (rowMajor) Node(rank int) int { return rank }

// RowMajor returns the identity placement.
func RowMajor() Placement { return rowMajor{} }

// permutation is an explicit rank -> node table; Snake, Blocked and
// user-supplied permutations all reduce to one.
type permutation struct {
	name  string
	nodes []int
}

func (p *permutation) Name() string { return p.name }
func (p *permutation) Node(rank int) int {
	if rank < 0 || rank >= len(p.nodes) {
		panic(fmt.Sprintf("topology: rank %d outside placement of %d nodes", rank, len(p.nodes)))
	}
	return p.nodes[rank]
}

// NewPermutation builds a placement from an explicit rank -> node table,
// validating that it is a bijection on [0, len(nodes)).
func NewPermutation(name string, nodes []int) (Placement, error) {
	seen := make([]bool, len(nodes))
	for r, n := range nodes {
		if n < 0 || n >= len(nodes) {
			return nil, fmt.Errorf("topology: placement maps rank %d to node %d outside [0,%d)", r, n, len(nodes))
		}
		if seen[n] {
			return nil, fmt.Errorf("topology: placement maps two ranks to node %d", n)
		}
		seen[n] = true
	}
	return &permutation{name: name, nodes: append([]int(nil), nodes...)}, nil
}

// Snake places consecutive ranks along a boustrophedon walk of the machine:
// odd rows (and planes) are traversed backwards, so rank r and rank r+1 are
// always physically adjacent — locality for neighbour exchange at the cost
// of folding distant ranks onto shared rows.
func Snake(t Topology) (Placement, error) { return walk(t, "snake", (*Grid).snake) }

// Blocked tiles the machine into blocks 2 wide in every dimension — 2x2 on
// a mesh, 2x2x2 on a torus — and fills one block before moving to the next:
// the Hilbert-ish clustered layout, where groups of four (eight)
// consecutive ranks share a corner of the machine, shortening their mutual
// routes while stretching block-to-block ones.  Odd extents leave ragged
// blocks, which are filled in the same order.
func Blocked(t Topology) (Placement, error) { return walk(t, "blocked", (*Grid).blocked) }

// walk places ranks along a grid's walk.  On a multistage switch every
// placement is distance-equivalent, so it degenerates to row-major.
func walk(t Topology, name string, order func(*Grid) []int) (Placement, error) {
	switch g := t.(type) {
	case *Grid:
		return &permutation{name: name, nodes: order(g)}, nil
	case *Multistage:
		return &permutation{name: name, nodes: identity(t.Nodes())}, nil
	}
	return nil, fmt.Errorf("topology: no %s placement for %s", name, t.Name())
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// PlacementByName builds a placement policy from a command-line name:
// "rowmajor" (or "row-major"), "snake", "blocked", or an explicit
// permutation "perm:2,3,0,1" listing the node of every rank in rank order.
func PlacementByName(name string, t Topology) (Placement, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	switch {
	case name == "" || name == "rowmajor" || name == "row-major":
		return RowMajor(), nil
	case name == "snake":
		return Snake(t)
	case name == "blocked":
		return Blocked(t)
	case strings.HasPrefix(name, "perm:"):
		fields := strings.Split(name[len("perm:"):], ",")
		if len(fields) != t.Nodes() {
			return nil, fmt.Errorf("topology: permutation lists %d nodes, machine has %d", len(fields), t.Nodes())
		}
		nodes := make([]int, len(fields))
		for i, f := range fields {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("topology: bad permutation entry %q: %v", f, err)
			}
			nodes[i] = v
		}
		return NewPermutation("perm", nodes)
	}
	return nil, fmt.Errorf("topology: unknown placement %q (rowmajor, snake, blocked, perm:n0,n1,...)", name)
}
