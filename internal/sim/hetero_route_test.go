package sim_test

// Determinism of heterogeneous machines composed with the route-aware
// network model: a degraded rank plus a topology-routed interconnect must
// produce bit-identical virtual clocks on every run, including under the
// race detector, because the paper's load-balancing experiments compare
// such runs directly.  Lives in an external test package so it can import
// topology (which itself imports sim) without a cycle.

import (
	"testing"

	"agcm/internal/machine"
	"agcm/internal/sim"
	"agcm/internal/topology"
)

// routedDegradedRun builds an 8-rank machine with rank 5 degraded 3x,
// installs a snake-placed 4x2 mesh network, and runs a mixed workload of
// neighbour exchange, all-to-all traffic and unequal compute.
func routedDegradedRun(t *testing.T) *sim.Result {
	t.Helper()
	base := machine.Paragon()
	models := make([]sim.CostModel, 8)
	for i := range models {
		models[i] = base
	}
	models[5] = machine.Degraded(base, 3)
	m := sim.NewHeterogeneous(models)

	topo, err := topology.NewGrid(false, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	place, err := topology.Snake(topo)
	if err != nil {
		t.Fatal(err)
	}
	net, err := topology.NewNetwork(topo, place, base)
	if err != nil {
		t.Fatal(err)
	}
	m.SetRouteModel(net)

	res, err := m.Run(func(p *sim.Proc) error {
		n := p.Ranks()
		for step := 0; step < 3; step++ {
			p.Account(sim.Physics, func() { p.Compute(float64(1000 * (1 + p.Rank()))) })
			// Ring exchange.
			p.SendFloatsCopy((p.Rank()+1)%n, 1, []float64{float64(step)}, 64)
			p.RecvFloatsInto((p.Rank()+n-1)%n, 1, nil)
			// All-to-all, the transpose pattern.
			for d := 0; d < n; d++ {
				if d != p.Rank() {
					p.SendFloatsCopy(d, 2, []float64{1, 2, 3}, 24)
				}
			}
			for s := 0; s < n; s++ {
				if s != p.Rank() {
					p.RecvFloatsInto(s, 2, nil)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHeterogeneousRoutedDeterminism(t *testing.T) {
	a := routedDegradedRun(t)
	for trial := 0; trial < 3; trial++ {
		b := routedDegradedRun(t)
		for r := range a.Clocks {
			if a.Clocks[r] != b.Clocks[r] {
				t.Fatalf("trial %d: rank %d clock %v != %v",
					trial, r, b.Clocks[r], a.Clocks[r])
			}
			if a.WaitSeconds[r] != b.WaitSeconds[r] {
				t.Fatalf("trial %d: rank %d wait %v != %v",
					trial, r, b.WaitSeconds[r], a.WaitSeconds[r])
			}
		}
	}
}

func TestDegradedComposesWithRoutes(t *testing.T) {
	res := routedDegradedRun(t)
	// The degraded rank's compute runs 3x slower than its homogeneous
	// neighbours'; with rank-proportional work, rank 5's accounted compute
	// must exceed every healthy rank's.
	compute := res.Accounts[sim.Physics]
	for r, v := range compute {
		if r != 5 && compute[5] <= v {
			t.Fatalf("degraded rank 5 compute %v not above rank %d's %v", compute[5], r, v)
		}
	}
}
