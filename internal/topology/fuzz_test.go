package topology

import "testing"

// FuzzTopologySpec drives the two parsers that take a run's outside input —
// core.Config's Topology and Placement strings, from the agcm flags and the
// daemon's request body — on arbitrary strings, machine names and node
// counts in 1..4096.  Nothing may panic, every accepted topology has exactly
// the nodes it was asked for, and every accepted placement is a permutation
// of them.
func FuzzTopologySpec(f *testing.F) {
	for _, s := range []struct {
		topo, machine, place string
		nodes                int
	}{
		{"auto", "Intel Paragon", "snake", 32},
		{"auto", "Cray T3D", "blocked", 64},
		{"auto", "IBM SP-2", "rowmajor", 16},
		{"mesh:8x4", "", "perm:0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31", 32},
		{"torus:4x4x2", "", "blocked", 32},
		{"switch", "", "snake", 240},
		{"mesh", "", "perm:1,0", 2},
		{"mesh:274177x67280421310721", "", "", 1},
		{"torus:0x0x0", "", "perm:", 1},
		{"none", "", "snake", 4},
	} {
		f.Add(s.topo, s.machine, s.place, s.nodes)
	}
	f.Fuzz(func(t *testing.T, name, machineName, placement string, n int) {
		nodes := 1 + int(uint(n)%4096)
		topo, err := ByName(name, machineName, nodes)
		if err != nil || topo == nil {
			return
		}
		if got := topo.Nodes(); got != nodes {
			t.Fatalf("ByName(%q, %q, %d) has %d nodes", name, machineName, nodes, got)
		}
		place, err := PlacementByName(placement, topo)
		if err != nil {
			return
		}
		seen := make([]bool, nodes)
		for rank := 0; rank < nodes; rank++ {
			node := place.Node(rank)
			if node < 0 || node >= nodes || seen[node] {
				t.Fatalf("placement %q on %s: rank %d on node %d, not a permutation of %d nodes",
					placement, topo.Name(), rank, node, nodes)
			}
			seen[node] = true
		}
	})
}
