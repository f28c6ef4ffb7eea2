package sim

import (
	"reflect"
	"testing"
)

// TestPhaseNamesAscend pins the phases' order: the names are unique and
// strictly ascending in constant order, so a walk over phases meets them in
// the order a sorted list of their names would give.
func TestPhaseNamesAscend(t *testing.T) {
	for ph := Phase(1); ph < NumPhases; ph++ {
		if prev := ph - 1; prev.String() >= ph.String() {
			t.Errorf("phase %d %q does not sort after phase %d %q", ph, ph, prev, prev)
		}
	}
	if got := NumPhases.String(); got != "phase(6)" {
		t.Errorf("NumPhases.String() = %q, want phase(6)", got)
	}
}

// TestPhasesListsAccounted: Result.Phases lists exactly the phases some rank
// accounted to, a zero-second Account included, and every listed phase has a
// value for every rank.
func TestPhasesListsAccounted(t *testing.T) {
	m := New(3, newTestModel())
	res, err := m.Run(func(p *Proc) error {
		p.Account(Sync, func() {})
		if p.Rank() == 1 {
			p.Account(DynamicsComm, func() { p.Compute(50) })
		}
		p.Account(Physics, func() { p.Compute(float64(100 * (p.Rank() + 1))) })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Phases(), []Phase{DynamicsComm, Physics, Sync}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Phases() = %v, want %v", got, want)
	}
	if got := res.Accounts[Sync]; !reflect.DeepEqual(got, []float64{0, 0, 0}) {
		t.Errorf("Accounts[sync] = %v, want three zeros", got)
	}
	if got := res.Accounts[DynamicsComm]; len(got) != 3 || got[0] != 0 || got[1] <= 0 || got[2] != 0 {
		t.Errorf("Accounts[dynamics-comm] = %v, want time on rank 1 only", got)
	}
	// The present phases share one allocation: each slice is capped, so
	// appending to one cannot write into the next.
	before := res.Accounts[Physics][0]
	_ = append(res.Accounts[DynamicsComm], 99)
	if res.Accounts[Physics][0] != before {
		t.Errorf("append to Accounts[dynamics-comm] overwrote Accounts[physics][0]")
	}
}

// TestUnaccountedPhaseReadsZero: a phase no rank accounted to reads 0 from
// Proc.Accounted and Result.MaxAccount, and has no accounts.
func TestUnaccountedPhaseReadsZero(t *testing.T) {
	m := New(2, newTestModel())
	res, err := m.Run(func(p *Proc) error {
		p.Account(Physics, func() { p.Compute(100) })
		if got := p.Accounted(Filter); got != 0 {
			t.Errorf("rank %d: Accounted(filter) = %g, want 0", p.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MaxAccount(Filter); got != 0 {
		t.Errorf("MaxAccount(filter) = %g, want 0", got)
	}
	if res.Accounts[Filter] != nil {
		t.Errorf("Accounts[filter] = %v, want nil", res.Accounts[Filter])
	}
}

// TestTimedShimAccountsToMisc: the Timed shim ignores its name and accounts
// to Misc, and its event-log span is named "misc".
func TestTimedShimAccountsToMisc(t *testing.T) {
	m := New(1, newTestModel())
	m.SetEventLog(true)
	res, err := m.Run(func(p *Proc) error {
		p.Timed("probe", func() { p.Compute(100) })
		if got := p.Accounted(Misc); got <= 0 {
			t.Errorf("Accounted(misc) = %g, want > 0", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Phases(); !reflect.DeepEqual(got, []Phase{Misc}) {
		t.Fatalf("Phases() = %v, want [misc]", got)
	}
	if ev := res.Events[0]; len(ev) != 1 || ev[0].Kind != EventSpan || ev[0].Name != "misc" {
		t.Fatalf("events %+v, want one span named misc", ev)
	}
}
