package experiments

import (
	"encoding/json"
	"testing"

	"agcm/internal/server"
)

// compareSchedulers runs the comparison (a ~10 ms virtual-time simulation).
func compareSchedulers(t *testing.T) *SchedulerComparison {
	t.Helper()
	cmp, err := CompareSchedulers()
	if err != nil {
		t.Fatalf("CompareSchedulers: %v", err)
	}
	return cmp
}

func TestCompareSchedulersDeterministic(t *testing.T) {
	a, b := compareSchedulers(t), compareSchedulers(t)
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatal("two CompareSchedulers runs marshal differently")
	}
}

func TestCompareSchedulersCoversAllPolicies(t *testing.T) {
	cmp := compareSchedulers(t)
	names := server.SchedulerNames()
	if len(cmp.Policies) != len(names) {
		t.Fatalf("comparison has %d policies, want %d", len(cmp.Policies), len(names))
	}
	for i, want := range names {
		res := cmp.Policies[i]
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

func TestCompareSchedulersSJFImprovesInteractiveP95(t *testing.T) {
	cmp := compareSchedulers(t)
	var fcfs, sjf int64
	for _, res := range cmp.Policies {
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

func TestCompareSchedulersLabelInversionSeparatesPolicies(t *testing.T) {
	// With the expensive grid under the interactive label, priority (which
	// follows the label) and sjf (which follows predicted cost) must
	// disagree; on the reference workload the label tracks the cost, so
	// they coincide.  This is the evidence that sjf consults the oracle.
	cmp := compareSchedulers(t)
	if len(cmp.LabelInverted) != 2 {
		t.Fatalf("LabelInverted has %d results, want 2", len(cmp.LabelInverted))
	}
	prio, sjf := cmp.LabelInverted[0], cmp.LabelInverted[1]
	if prio.Policy != "priority" || sjf.Policy != "sjf" {
		t.Fatalf("LabelInverted order = %q,%q", prio.Policy, sjf.Policy)
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
