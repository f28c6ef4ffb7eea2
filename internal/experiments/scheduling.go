package experiments

// Scheduling experiment: the workload engine's virtual-time scheduler
// comparison.  The same seeded schedule — the committed
// workloads/scheduling.json reference spec — runs under fcfs, priority, and
// sjf, then priority and sjf rerun on a label-inverted variant where the
// expensive grid carries the interactive label.  On the reference workload
// the label tracks the cost and sjf matches priority; after inversion the
// two must split, which is the evidence that sjf consults the cost oracle
// rather than the class rank.  CompareSchedulers runs the comparison;
// Scheduling renders it as tables, with the reference spec's and schedule's
// SHA-256 in the notes so the committed RESULTS.txt pins the exact workload.

import (
	"fmt"

	"agcm/internal/machine"
	"agcm/internal/roofline"
	"agcm/internal/server"
	"agcm/internal/stats"
	"agcm/internal/workload"
)

// SchedulerComparison is every simulation behind the scheduling experiment.
type SchedulerComparison struct {
	// Reference is the reference workload's schedule.
	Reference *workload.Schedule
	// Policies holds one simulation of it per scheduling policy, in
	// server.SchedulerNames order.
	Policies []*workload.SimResult
	// LabelInverted re-runs priority and sjf on the same workload with the
	// class templates swapped, so the expensive grid carries the
	// interactive label.  Priority still favors the label; sjf follows
	// predicted cost — the two must now disagree, which is what
	// distinguishes a cost oracle from a class rank.
	LabelInverted []*workload.SimResult
}

// CompareSchedulers generates the two schedules and simulates them.  Jobs
// are priced by the roofline model of the Paragon — the machine the spec's
// templates name — so every latency is in that machine's virtual seconds and
// the result is the same on every host.
func CompareSchedulers() (*SchedulerComparison, error) {
	oracle, err := roofline.NewMachine(machine.Paragon())
	if err != nil {
		return nil, err
	}
	simulate := func(spec workload.Spec, policies []string) (*workload.Schedule, []*workload.SimResult, error) {
		sched, err := workload.Generate(spec)
		if err != nil {
			return nil, nil, fmt.Errorf("scheduling comparison: %w", err)
		}
		var results []*workload.SimResult
		for _, policy := range policies {
			res, err := workload.Simulate(sched, workload.SimOptions{Policy: policy, Oracle: oracle})
			if err != nil {
				return nil, nil, fmt.Errorf("scheduling comparison: %s on %s: %w", policy, spec.Name, err)
			}
			results = append(results, res)
		}
		return sched, results, nil
	}
	var cmp SchedulerComparison
	if cmp.Reference, cmp.Policies, err = simulate(workload.SchedulingSpec(), server.SchedulerNames()); err != nil {
		return nil, err
	}
	if _, cmp.LabelInverted, err = simulate(workload.SchedulingSpecInverted(), []string{"priority", "sjf"}); err != nil {
		return nil, err
	}
	return &cmp, nil
}

// Scheduling renders the scheduler comparison.  The numbers are
// bit-deterministic and independent of the host.
func Scheduling(opt Options) (*Output, error) {
	cmp, err := CompareSchedulers()
	if err != nil {
		return nil, err
	}
	ref := simTable(fmt.Sprintf("Scheduling: per-class latency by policy, reference workload (%d requests)",
		len(cmp.Reference.Requests)), cmp.Policies)
	inv := simTable("Scheduling: label-inverted workload (expensive grid labeled interactive)", cmp.LabelInverted)
	specHash, err := cmp.Reference.Spec.Hash()
	if err != nil {
		return nil, err
	}
	schedHash, err := cmp.Reference.Hash()
	if err != nil {
		return nil, err
	}
	notes := []string{
		"Virtual-time simulation over the seeded schedule; identical on every host.",
		"sjf tracks priority when the SLO label predicts the cost and departs",
		"from it when the labels are inverted: cost oracle, not class rank.",
		fmt.Sprintf("Reference workload %q: spec sha256 %s,", cmp.Reference.Spec.Name, specHash),
		fmt.Sprintf("schedule sha256 %s.", schedHash),
	}
	return &Output{ID: "scheduling", Title: "Scheduler comparison",
		Tables: []*stats.Table{ref, inv}, Notes: notes}, nil
}

// simTable renders one row per (policy, class), with the policy's fairness
// number on its first row.
func simTable(title string, results []*workload.SimResult) *stats.Table {
	tbl := &stats.Table{
		Title:  title,
		Header: []string{"Policy", "Class", "Requests", "p50 s", "p95 s", "p99 s", "Slowdown"},
	}
	for _, res := range results {
		for i, c := range res.Classes {
			slowdown := ""
			if i == 0 {
				slowdown = stats.Ratio(res.MaxClassSlowdown)
			}
			tbl.AddRow(res.Policy, c.Class, fmt.Sprintf("%d", c.Requests),
				usSeconds(c.P50US), usSeconds(c.P95US), usSeconds(c.P99US), slowdown)
		}
	}
	return tbl
}

// usSeconds renders virtual microseconds as seconds.
func usSeconds(us int64) string { return stats.Seconds(float64(us) / 1e6) }
