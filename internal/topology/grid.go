package topology

import (
	"fmt"
	"strings"
)

// Grid is a k-dimensional mesh or torus: the Intel Paragon XP/S's 2-D mesh
// has no wraparound, the Cray T3D's 3-D torus wraps every dimension.  Nodes
// are numbered dimension 0 fastest, so a 2-D node is y*X + x and a 3-D node
// (z*Y + y)*X + x.  Neighbours are joined by one directed link each way; on
// a ring of two nodes the + and − neighbour coincide and share that link.
type Grid struct {
	ext, stride []int
	wrap        bool
	ends        [][2]int // link id -> (from, to) node
	out         []int    // (node*k + dim)*2 + dir -> link id leaving node; dir 0 is +, 1 is −
}

// NewGrid builds a grid with the given extents, dimension 0 first: a torus
// when wrap is set, a mesh otherwise.  Link ids follow each machine's
// historical order.  On a mesh they go dimension by dimension, nodes in
// index order, each edge's two directions together.  On a torus they go
// node by node, each dimension's + link then its − link.
func NewGrid(wrap bool, extents ...int) (*Grid, error) {
	k := len(extents)
	if k == 0 {
		return nil, fmt.Errorf("topology: a grid needs at least one dimension")
	}
	g := &Grid{ext: append([]int(nil), extents...), stride: make([]int, k), wrap: wrap}
	n := 1
	for d, e := range extents {
		if e < 1 {
			return nil, fmt.Errorf("topology: invalid %s", g.Name())
		}
		g.stride[d] = n
		n *= e
	}
	g.out = make([]int, 2*k*n)
	link := func(a, d, dir int) {
		g.out[(a*k+d)*2+dir] = len(g.ends)
		g.ends = append(g.ends, [2]int{a, g.neighbour(a, d, 1-2*dir)})
	}
	if wrap {
		for a := 0; a < n; a++ {
			for d, e := range g.ext {
				if e > 1 {
					link(a, d, 0)
				}
				if e > 2 {
					link(a, d, 1)
				} else { // a ring of two: the − neighbour, and so the link, is the + one
					g.out[(a*k+d)*2+1] = g.out[(a*k+d)*2]
				}
			}
		}
		return g, nil
	}
	for d, e := range g.ext {
		for a := 0; a < n; a++ {
			if g.coord(a, d)+1 < e {
				link(a, d, 0)
				link(g.neighbour(a, d, 1), d, 1)
			}
		}
	}
	return g, nil
}

func (g *Grid) coord(node, d int) int { return node / g.stride[d] % g.ext[d] }

// neighbour returns the node one step s (+1 or −1) from node a along
// dimension d, wrapping round the ring.
func (g *Grid) neighbour(a, d, s int) int {
	c := g.coord(a, d)
	return a + ((c+s+g.ext[d])%g.ext[d]-c)*g.stride[d]
}

// Name implements Topology, e.g. "2-D mesh 8x4" or "3-D torus 4x4x2".
func (g *Grid) Name() string {
	kind := "mesh"
	if g.wrap {
		kind = "torus"
	}
	return fmt.Sprintf("%d-D %s %s", len(g.ext), kind, join(g.ext, "x"))
}

// Nodes implements Topology.
func (g *Grid) Nodes() int { return len(g.out) / (2 * len(g.ext)) }

// NumLinks implements Topology.
func (g *Grid) NumLinks() int { return len(g.ends) }

// LinkName implements Topology, e.g. "(2,1)->(3,1)".
func (g *Grid) LinkName(id int) string {
	return g.nodeName(g.ends[id][0]) + "->" + g.nodeName(g.ends[id][1])
}

func (g *Grid) nodeName(node int) string {
	c := make([]int, len(g.ext))
	for d := range c {
		c[d] = g.coord(node, d)
	}
	return "(" + join(c, ",") + ")"
}

// Route implements Topology: dimension-ordered wormhole routing, dimension
// 0 first — the deadlock-free discipline of both machines.  A mesh steps
// straight towards the destination; a torus steps each ring the shorter way
// round, ties going the + way.
func (g *Grid) Route(a, b int, buf []int) []int {
	for d, e := range g.ext {
		for c, t := g.coord(a, d), g.coord(b, d); c != t; c = g.coord(a, d) {
			dir := 0
			if g.wrap && 2*((t-c+e)%e) > e || !g.wrap && t < c {
				dir = 1
			}
			id := g.out[(a*len(g.ext)+d)*2+dir]
			buf = append(buf, id)
			a = g.ends[id][1]
		}
	}
	return buf
}

// snake walks the grid boustrophedon: dimension d runs backwards when the
// loop counters of the dimensions above it sum to an odd number, so
// consecutive nodes of the walk are neighbours.
func (g *Grid) snake() []int {
	nodes := make([]int, g.Nodes())
	for r := range nodes {
		odd := 0
		for d := len(g.ext) - 1; d >= 0; d-- {
			c := g.coord(r, d)
			if odd%2 == 1 {
				nodes[r] += (g.ext[d] - 1 - c) * g.stride[d]
			} else {
				nodes[r] += c * g.stride[d]
			}
			odd += c
		}
	}
	return nodes
}

// blocked walks the grid tile by tile, tiles 2 wide in every dimension and
// ragged at odd extents, filling each tile before the next; tiles and the
// nodes inside one both go in index order.
func (g *Grid) blocked() []int {
	k := len(g.ext)
	tiles, corner, size := make([]int, k), make([]int, k), make([]int, k)
	count := 1
	for d, e := range g.ext {
		tiles[d] = (e + 1) / 2
		count *= tiles[d]
	}
	nodes := make([]int, 0, g.Nodes())
	for t := 0; t < count; t++ {
		cells := 1
		for d, rest := 0, t; d < k; d, rest = d+1, rest/tiles[d] {
			corner[d] = 2 * (rest % tiles[d])
			size[d] = min(2, g.ext[d]-corner[d])
			cells *= size[d]
		}
		for c := 0; c < cells; c++ {
			node := 0
			for d, rest := 0, c; d < k; d, rest = d+1, rest/size[d] {
				node += (corner[d] + rest%size[d]) * g.stride[d]
			}
			nodes = append(nodes, node)
		}
	}
	return nodes
}

// join formats v's elements separated by sep, e.g. "4x4x2".
func join(v []int, sep string) string {
	return strings.ReplaceAll(strings.Trim(fmt.Sprint(v), "[]"), " ", sep)
}
