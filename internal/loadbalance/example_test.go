package loadbalance_test

import (
	"fmt"

	"agcm/internal/loadbalance"
)

// The paper's Figure 6 worked example: four nodes with loads 65, 24, 38
// and 15 reach near-perfect balance in two sorted pairwise-exchange rounds.
func ExamplePairwise() {
	loads := []float64{65, 24, 38, 15}
	history := loadbalance.Pairwise(loads, 1, 0, 2)
	cur := loads
	for _, h := range history {
		if h.Iteration > 0 {
			cur = loadbalance.Apply(cur, h.Moves)
		}
		fmt.Printf("round %d: %v (imbalance %.1f%%)\n", h.Iteration, cur, 100*h.Imbalance)
	}
	// Output:
	// round 0: [65 24 38 15] (imbalance 83.1%)
	// round 1: [40 31 31 40] (imbalance 12.7%)
	// round 2: [36 35 35 36] (imbalance 1.4%)
}

// Scheme 1 shuffles every node's load to every other node: perfectly
// balanced, but P*(P-1) messages.
func ExampleCyclicShuffleInto() {
	moves := loadbalance.CyclicShuffleInto(nil, []float64{65, 24, 38, 15})
	after := loadbalance.Apply([]float64{65, 24, 38, 15}, moves)
	msgs, _ := loadbalance.PlanCost(moves)
	fmt.Printf("%d messages, loads %v\n", msgs, after)
	// Output:
	// 12 messages, loads [35.5 35.5 35.5 35.5]
}

// Targets is Eq. (3): spread indivisible rows as evenly as possible.
func ExampleTargets() {
	fmt.Println(loadbalance.Targets(38, 8))
	// Output:
	// [5 5 5 5 5 5 4 4]
}
