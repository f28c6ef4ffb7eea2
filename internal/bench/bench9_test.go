package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"agcm/internal/server"
	"agcm/internal/workload"
)

// buildBench9 memoizes the report: it is bit-deterministic, so one build
// serves every assertion.
var bench9 = func() func(t *testing.T) *Bench9Report {
	var rep *Bench9Report
	return func(t *testing.T) *Bench9Report {
		t.Helper()
		if rep == nil {
			r, err := NewBench9Report()
			if err != nil {
				t.Fatalf("NewBench9Report: %v", err)
			}
			rep = r
		}
		return rep
	}
}()

func TestBench9Deterministic(t *testing.T) {
	a := bench9(t)
	b, err := NewBench9Report()
	if err != nil {
		t.Fatal(err)
	}
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatal("two Bench9Report builds marshal differently")
	}
}

func TestBench9ReplayIdentical(t *testing.T) {
	if !bench9(t).ReplayIdentical {
		t.Fatal("regenerated schedule did not replay identically through the trace codec")
	}
}

func TestBench9CoversAllPolicies(t *testing.T) {
	rep := bench9(t)
	names := server.SchedulerNames()
	if len(rep.Policies) != len(names) {
		t.Fatalf("report has %d policies, want %d", len(rep.Policies), len(names))
	}
	for i, want := range names {
		res := rep.Policies[i]
		if res.Policy != want {
			t.Fatalf("policy %d = %q, want %q", i, res.Policy, want)
		}
		for _, class := range []string{"interactive", "batch"} {
			if res.Class(class).Requests == 0 {
				t.Errorf("%s: no %s requests simulated", want, class)
			}
		}
	}
}

func TestBench9SJFImprovesInteractiveP95(t *testing.T) {
	rep := bench9(t)
	var fcfs, sjf int64
	for _, res := range rep.Policies {
		switch res.Policy {
		case "fcfs":
			fcfs = res.Class("interactive").P95US
		case "sjf":
			sjf = res.Class("interactive").P95US
		}
	}
	if fcfs == 0 || sjf == 0 {
		t.Fatalf("missing interactive p95: fcfs=%d sjf=%d", fcfs, sjf)
	}
	if sjf > fcfs {
		t.Fatalf("sjf interactive p95 %dus exceeds fcfs %dus", sjf, fcfs)
	}
}

func TestBench9LabelInversionSeparatesPolicies(t *testing.T) {
	// With the expensive grid under the interactive label, priority (which
	// follows the label) and sjf (which follows predicted cost) must
	// disagree; on the reference workload the label tracks the cost, so
	// they coincide.  This is the evidence that sjf consults the oracle.
	rep := bench9(t)
	if len(rep.LabelInverted) != 2 {
		t.Fatalf("label_inverted has %d results, want 2", len(rep.LabelInverted))
	}
	prio, sjf := rep.LabelInverted[0], rep.LabelInverted[1]
	if prio.Policy != "priority" || sjf.Policy != "sjf" {
		t.Fatalf("label_inverted order = %q,%q", prio.Policy, sjf.Policy)
	}
	if prio.Class("interactive").P95US == sjf.Class("interactive").P95US &&
		prio.MaxClassSlowdown == sjf.MaxClassSlowdown {
		t.Fatal("priority and sjf are indistinguishable on the label-inverted workload")
	}
	if sjf.MaxClassSlowdown >= prio.MaxClassSlowdown {
		t.Errorf("sjf max class slowdown %.2f not below priority's %.2f",
			sjf.MaxClassSlowdown, prio.MaxClassSlowdown)
	}
}

func TestCommittedSchedulingSpecIsCanonical(t *testing.T) {
	// Every committed workload is its own canonical encoding — the specs CI
	// drives live daemons with and the -dump-spec round trip diffs against —
	// and workloads/scheduling.json is the built-in reference spec's.
	files, err := filepath.Glob("../../workloads/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed workloads found: %v", err)
	}
	for _, file := range files {
		disk, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := workload.ParseSpec(disk)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if filepath.Base(file) == "scheduling.json" {
			spec = workload.SchedulingSpec()
		}
		want, err := spec.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(disk) != string(want)+"\n" {
			t.Errorf("%s is not its canonical encoding\n got: %s\nwant: %s", file, disk, want)
		}
	}
}

func TestCommittedBench9Current(t *testing.T) {
	disk, err := os.ReadFile("../../BENCH_9.json")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(bench9(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if string(disk) != string(data) {
		t.Fatal("committed BENCH_9.json is stale; regenerate with: go run ./cmd/agcmbench -bench9-json BENCH_9.json")
	}
}
