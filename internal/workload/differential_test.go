package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"agcm/internal/core"
	"agcm/internal/server"
)

// windOracle prices a request by its pool index (carried by the config's
// InitWind): whole seconds 0..3, so costs tie within and across classes, and
// 0 — the live server's failed-prediction sentinel — occurs.
type windOracle struct{}

func (windOracle) PredictSeconds(cfg core.Config, steps int) (float64, error) {
	idx := int(math.Round((cfg.InitWind - poolWind(0)) / (poolWind(1) - poolWind(0))))
	return float64(idx % 4), nil
}

// TestSimulateDispatchesInSchedulerPopOrder is the differential check that
// the what-if and the daemon order jobs identically: over seeded random job
// sets, one simulated worker with every arrival at t = 0 must complete jobs
// in exactly the order a server.Scheduler pops the same (class, cost, seq)
// triples — under every policy.
func TestSimulateDispatchesInSchedulerPopOrder(t *testing.T) {
	spec, err := Spec{Classes: []Class{{Name: "interactive"}, {Name: "batch"}}}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range server.SchedulerNames() {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", policy, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				sched := &Schedule{Spec: spec}
				live, err := server.NewScheduler(policy, 64)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 40; i++ {
					cls := spec.Classes[rng.Intn(2)]
					r := Request{Seq: i, Class: cls.Name, PoolIndex: rng.Intn(cls.Pool.Distinct), Steps: 1}
					sched.Requests = append(sched.Requests, r)

					// What handleRun would admit for the same request.
					class, _ := server.ClassByName(r.Class)
					cfg, err := cls.Config(r.PoolIndex)
					if err != nil {
						t.Fatal(err)
					}
					cost, err := core.PredictCostWith(windOracle{}, cfg, r.Steps)
					if err != nil {
						t.Fatal(err)
					}
					if !live.Push(&server.Job{Request: &server.Request{Class: class}, Cost: cost, Seq: uint64(i)}) {
						t.Fatal("live scheduler shed")
					}
				}

				done, _, err := play(sched, SimOptions{Policy: policy, Workers: 1, Oracle: windOracle{}})
				if err != nil {
					t.Fatal(err)
				}
				for pos, sim := range done {
					popped, ok := live.Pop()
					if !ok {
						t.Fatal("live scheduler drained early")
					}
					if uint64(sim.req.Seq) != popped.Seq {
						t.Fatalf("position %d: Simulate ran request %d (class %s, cost %gus), Scheduler popped %d (class %s, cost %g)",
							pos, sim.req.Seq, sim.req.Class, sim.Cost, popped.Seq, popped.Class, popped.Cost)
					}
				}
			})
		}
	}
}
