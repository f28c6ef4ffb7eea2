package workload

import "testing"

// TestTraceHashStable pins the schedule's content address: the committed
// reference workload regenerates to the schedule sha256 that RESULTS.txt
// and past agcmload reports carry, so the canonical encoding cannot drift
// unnoticed.
func TestTraceHashStable(t *testing.T) {
	const want = "93441d578b2be8b682f65bd30013f7655f0e121f02154dac3f90fbd83e3af638"
	sched, err := Generate(SchedulingSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sched.Hash(); err != nil || got != want {
		t.Fatalf("scheduling schedule hash %s (%v), want %s", got, err, want)
	}
}
