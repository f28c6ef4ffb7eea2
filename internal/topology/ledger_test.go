package topology_test

import (
	"fmt"
	"testing"

	"agcm/internal/core"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/physics"
	"agcm/internal/topology"
	"agcm/internal/trace"
)

// TestReplayLedgerMatchesCommMatrix checks the one per-link ledger against an
// independent count: for real runs on each interconnect and placement, every
// link's replayed Transfers and Bytes must equal the rank-by-rank
// communication matrix folded over the topology's routes.
func TestReplayLedgerMatchesCommMatrix(t *testing.T) {
	for _, mc := range []struct {
		model *machine.Model
		topo  string
	}{
		{machine.Paragon(), "mesh:8x4"},
		{machine.CrayT3D(), "torus:4x4x2"},
		{machine.IBMSP2(), "switch"},
	} {
		for _, pl := range []string{"rowmajor", "snake", "blocked"} {
			t.Run(fmt.Sprintf("%s/%s", mc.topo, pl), func(t *testing.T) {
				rep, err := core.Run(core.Config{
					Spec:          grid.Spec{Nlon: 72, Nlat: 46, Nlayers: 3},
					Machine:       mc.model,
					MeshPy:        4,
					MeshPx:        8,
					Filter:        core.FilterFFT,
					PhysicsScheme: physics.None,
					EventLog:      true,
					Topology:      mc.topo,
					Placement:     pl,
				}, 1)
				if err != nil {
					t.Fatal(err)
				}
				net := rep.Network
				crep, err := net.Contend(topology.TransfersFromEvents(rep.Raw.Events))
				if err != nil {
					t.Fatal(err)
				}

				topo, place := net.Topology(), net.Placement()
				transfers := make([]int, topo.NumLinks())
				bytes := make([]int64, topo.NumLinks())
				cm := trace.NewCommMatrix(rep.Raw)
				var route []int
				for s := 0; s < cm.Ranks; s++ {
					for d := 0; d < cm.Ranks; d++ {
						msgs, b := cm.At(s, d)
						if s == d || msgs == 0 {
							continue
						}
						route = topo.Route(place.Node(s), place.Node(d), route[:0])
						for _, l := range route {
							transfers[l] += int(msgs)
							bytes[l] += b
						}
					}
				}

				busy := 0
				for l, lc := range crep.Links {
					if lc.Link != l || lc.Transfers != transfers[l] || lc.Bytes != bytes[l] {
						t.Errorf("link %d %s: replay %d msgs %d bytes, matrix fold %d msgs %d bytes",
							l, lc.Name, lc.Transfers, lc.Bytes, transfers[l], bytes[l])
					}
					if lc.Transfers > 0 {
						busy++
					}
				}
				if busy == 0 {
					t.Fatal("no link carried traffic")
				}
			})
		}
	}
}
