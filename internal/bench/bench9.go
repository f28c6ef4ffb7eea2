package bench

import (
	"bytes"
	"fmt"
	"reflect"

	"agcm/internal/experiments"
	"agcm/internal/workload"
)

// Bench9Report is the BENCH_9.json document: the scheduler comparison under
// the reference scheduling workload.  Unlike the host benchmarks, every
// number here is a virtual-time simulation over a seeded schedule — the
// document is bit-deterministic and committable, and CI regenerates it and
// diffs rather than gating on thresholds alone.
type Bench9Report struct {
	Note string `json:"note"`

	// Spec identifies the reference workload (workloads/scheduling.json).
	Spec struct {
		Name           string `json:"name"`
		SpecSHA256     string `json:"spec_sha256"`
		ScheduleSHA256 string `json:"schedule_sha256"`
		Requests       int    `json:"requests"`
	} `json:"spec"`

	// ReplayIdentical asserts the engine's core promise: generating the
	// schedule twice and round-tripping it through the trace codec produce
	// byte-identical traces and structurally equal request sequences.
	ReplayIdentical bool `json:"replay_identical"`

	// The comparison itself — "policies" and "label_inverted" — is the
	// scheduling experiment's, embedded so the two cannot drift.
	*experiments.SchedulerComparison
}

// NewBench9Report runs the scheduler comparison (the one the scheduling
// experiment renders as tables) and checks the reference schedule's replay
// identity.
func NewBench9Report() (*Bench9Report, error) {
	cmp, err := experiments.CompareSchedulers()
	if err != nil {
		return nil, err
	}
	sched := cmp.Reference

	rep := &Bench9Report{
		Note: "deterministic virtual-time scheduler comparison over the seeded " +
			"scheduling workload; all latencies are virtual microseconds from the " +
			"roofline model of the Paragon, identical on every host",
		SchedulerComparison: cmp,
	}
	rep.Spec.Name = sched.Spec.Name
	if rep.Spec.SpecSHA256, err = sched.Spec.Hash(); err != nil {
		return nil, err
	}
	if rep.Spec.ScheduleSHA256, err = sched.Hash(); err != nil {
		return nil, err
	}
	rep.Spec.Requests = len(sched.Requests)

	rep.ReplayIdentical, err = replayIdentical(sched)
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// replayIdentical regenerates the schedule and round-trips it through the
// trace codec, reporting whether every copy is identical.
func replayIdentical(sched *workload.Schedule) (bool, error) {
	again, err := workload.Generate(sched.Spec)
	if err != nil {
		return false, err
	}
	var a, b bytes.Buffer
	if err := workload.WriteTrace(&a, sched); err != nil {
		return false, err
	}
	if err := workload.WriteTrace(&b, again); err != nil {
		return false, err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return false, nil
	}
	decoded, err := workload.ReadTrace(bytes.NewReader(a.Bytes()))
	if err != nil {
		return false, fmt.Errorf("bench9: trace round-trip: %w", err)
	}
	return reflect.DeepEqual(decoded.Requests, sched.Requests), nil
}
