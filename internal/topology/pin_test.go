package topology_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"agcm/internal/topology"
)

// routedPins is the SHA-256 of each shape's routed surface, as digestShape
// writes it: name, link count, every link name in id order, the route of
// every ordered node pair, and the snake and blocked placements.  Link ids
// order the contention tables, so a change that renumbers links moves a
// report's ties even when every route keeps its length.
var routedPins = []struct {
	spec  string
	nodes int
	sum   string
}{
	{"mesh:1x1", 1, "2b821c82a68b7b97d5f510199fbed119159bd081c968e7df785ab21c48149d95"},
	{"mesh:2x1", 2, "f49b55a58def1e9f7c0110559815842aa4cd86c532065ef5d4e6d2b6f92e892a"},
	{"mesh:1x2", 2, "48f4d54e754016188787129862abfda79000521d1e7eabfb9a78185988ed691d"},
	{"mesh:2x2", 4, "b95b2e71d0fde9103881d1afb07eca05f929e216829dac0ac143a15e0cf9a0d3"},
	{"mesh:4x2", 8, "dbb08fbc0f221907489b10f2b4e09fc29d523f3f59dce3241c00765f08c66d93"},
	{"mesh:4x3", 12, "b98a6c4c3e75c56a5718c7d503d63389678a2bb716c5bb3cbe855493fafbb5b0"},
	{"mesh:8x4", 32, "837c2a79b0d88bc2c36bc5c7c9c734b2c23efdbe0b16e518f74435158d7465da"},
	{"mesh:16x15", 240, "fa38e79734e947a2e09f21936aab152a6eac8751f7d1e512f56ef01ad6bb2186"},
	{"mesh:30x8", 240, "ea2149346604d30f47b421e5179184ddf90172eb1aea92d2036f43eee8045443"},
	{"torus:1x1x1", 1, "f98fa12dfc31f9645711b4d7563eca4c570d2068cc19e54c0f1099519224bf71"},
	{"torus:2x1x1", 2, "3f7dffbe984f2f0d141514608999723219162d34b8541b5d1450b529aa8b56f3"},
	{"torus:2x2x2", 8, "ab8d2c5952b2bdd89b5ba6236998e9ddaf2ba6025093ee94a60f1dd7560fe9f3"},
	{"torus:3x3x3", 27, "291a17d378bc839d64d97b5d5ad6ab37662a7e78d08b8f9583868ebc3972a600"},
	{"torus:4x3x2", 24, "f81265b9f212379d92f66693bc16e12a8aa6f2a9de6b8d3d32ff9386751610ae"},
	{"torus:4x4x2", 32, "3f70796626ad246b50a38baf78a6e103beea7c6d0ed194c0248e329e9e13b5da"},
	{"torus:2x1x5", 10, "58d7e389e58614c054cbd015db26ae9455614b9d1ece0f167e8aaab61e5af94a"},
	{"torus:6x5x4", 120, "8676d8482f25088e90c1e65360173bd0307e9d4ffcd4d422ec56b7e38741600b"},
}

// defaultShapesPin is the SHA-256 of the names of the topologies that
// ByName("mesh"), ByName("torus") and Auto build for every node count from
// 1 to 256: the names carry the extents each factorization chose.
const defaultShapesPin = "78ec77e9dba890b9c1366cc6065bc4c53ea0599fcd58f391a51d068f20292a1c"

func digestShape(t *testing.T, topo topology.Topology) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%d\n", topo.Name(), topo.NumLinks())
	for id := 0; id < topo.NumLinks(); id++ {
		fmt.Fprintln(h, topo.LinkName(id))
	}
	var path []int
	for a := 0; a < topo.Nodes(); a++ {
		for b := 0; b < topo.Nodes(); b++ {
			path = topo.Route(a, b, path[:0])
			fmt.Fprintln(h, a, b, path)
		}
	}
	for _, mk := range []func(topology.Topology) (topology.Placement, error){topology.Snake, topology.Blocked} {
		p, err := mk(topo)
		if err != nil {
			t.Fatal(err)
		}
		writePlacement(h, p, topo.Nodes())
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writePlacement(h hash.Hash, p topology.Placement, nodes int) {
	fmt.Fprintln(h, p.Name())
	for r := 0; r < nodes; r++ {
		fmt.Fprintln(h, p.Node(r))
	}
}

// TestRoutedSurfacePinned holds every routed output byte-identical: a
// topology refactor must reproduce each shape's link numbering, routes and
// placements exactly.  Regenerate a pin only for a change that moves them
// on purpose.
func TestRoutedSurfacePinned(t *testing.T) {
	for _, pin := range routedPins {
		topo, err := topology.ByName(pin.spec, "", pin.nodes)
		if err != nil {
			t.Fatal(err)
		}
		if got := digestShape(t, topo); got != pin.sum {
			t.Errorf("%s: routed surface hashes to %s, want %s", pin.spec, got, pin.sum)
		}
	}

	h := sha256.New()
	for n := 1; n <= 256; n++ {
		for _, build := range []func() (topology.Topology, error){
			func() (topology.Topology, error) { return topology.ByName("mesh", "", n) },
			func() (topology.Topology, error) { return topology.ByName("torus", "", n) },
			func() (topology.Topology, error) { return topology.Auto("Intel Paragon", n) },
			func() (topology.Topology, error) { return topology.Auto("Cray T3D", n) },
			func() (topology.Topology, error) { return topology.Auto("IBM SP-2", n) },
		} {
			topo, err := build()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(h, n, topo.Name())
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != defaultShapesPin {
		t.Errorf("default shapes for 1..256 nodes hash to %s, want %s", got, defaultShapesPin)
	}
}
