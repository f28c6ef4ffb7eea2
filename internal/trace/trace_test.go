package trace

import (
	"strings"
	"testing"

	"agcm/internal/sim"
)

type flatModel struct{}

func (flatModel) FlopSeconds(n float64) float64         { return n * 1e-6 }
func (flatModel) MemSeconds(n float64) float64          { return n * 1e-9 }
func (flatModel) SendOverheadSeconds(bytes int) float64 { return 1e-5 }
func (flatModel) RecvOverheadSeconds(bytes int) float64 { return 1e-5 }
func (flatModel) NetworkSeconds(bytes int) float64      { return 1e-4 + float64(bytes)*1e-8 }

// demoResult runs an unbalanced two-phase program on 4 ranks.
func demoResult(t *testing.T) *sim.Result {
	t.Helper()
	m := sim.New(4, flatModel{})
	res, err := m.Run(func(p *sim.Proc) error {
		p.Account(sim.Physics, func() { p.Compute(float64(1000 * (p.Rank() + 1))) })
		// Rank 0 waits for the slowest rank's message.
		if p.Rank() == 3 {
			p.SendFloatsCopy(0, 1, []float64{1}, 8)
		}
		if p.Rank() == 0 {
			p.Account(sim.DynamicsComm, func() { p.RecvFloatsInto(3, 1, nil) })
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestProfiles(t *testing.T) {
	res := demoResult(t)
	profiles := Profiles(res)
	if len(profiles) != 4 {
		t.Fatalf("%d profiles", len(profiles))
	}
	// Rank 3 computed 4x rank 0's work.
	if profiles[3].Busy[sim.Physics] <= 3*profiles[0].Busy[sim.Physics] {
		t.Errorf("physics shares wrong: %v vs %v",
			profiles[3].Busy[sim.Physics], profiles[0].Busy[sim.Physics])
	}
	// Rank 0 waited for rank 3.
	if profiles[0].Wait <= 0 {
		t.Errorf("rank 0 recorded no wait")
	}
	if profiles[1].Wait != 0 {
		t.Errorf("rank 1 waited %g with no receives", profiles[1].Wait)
	}
	// Other is non-negative by construction.
	for _, p := range profiles {
		if p.Other() < 0 {
			t.Errorf("rank %d Other < 0", p.Rank)
		}
	}
	if profiles[3].Messages != 1 {
		t.Errorf("rank 3 sent %d messages", profiles[3].Messages)
	}
}

// TestOtherIsBitDeterministic pins Other's subtraction order: float
// subtraction is not associative, so Other subtracts the Busy values in
// phase order, which is the sorted order of their names.  The values below
// are chosen so that the reverse order disagrees in the last place.
func TestOtherIsBitDeterministic(t *testing.T) {
	p := Profile{Clock: 1e16 + 4, Wait: 1}
	p.Busy[sim.DynamicsComm] = 1e16
	p.Busy[sim.DynamicsFD] = 1
	p.Busy[sim.Filter] = 0.5
	p.Busy[sim.Misc] = 0.25
	want, reverse := p.Clock-p.Wait, p.Clock-p.Wait
	for ph := sim.Phase(0); ph < sim.NumPhases; ph++ {
		want -= p.Busy[ph]
		reverse -= p.Busy[sim.NumPhases-1-ph]
	}
	if want == reverse {
		t.Fatalf("the values do not tell the orders apart: both give %v", want)
	}
	for i := 0; i < 100; i++ {
		if got := p.Other(); got != want {
			t.Fatalf("call %d: Other() = %v, want %v", i, got, want)
		}
	}
}

func TestUtilizationTable(t *testing.T) {
	res := demoResult(t)
	out := UtilizationTable(res, sim.Physics, 10)
	if !strings.Contains(out, "physics") || !strings.Contains(out, "wait") {
		t.Fatalf("missing columns:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header + 4 ranks
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestUtilizationTableTruncates(t *testing.T) {
	m := sim.New(20, flatModel{})
	res, err := m.Run(func(p *sim.Proc) error {
		p.Account(sim.Physics, func() { p.Compute(float64(100 * (p.Rank() + 1))) })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out := UtilizationTable(res, sim.Physics, 6)
	if !strings.Contains(out, "of 20 ranks shown") {
		t.Fatalf("no truncation notice:\n%s", out)
	}
	// The most loaded rank (19) must appear even when truncated.
	if !strings.Contains(out, "\n19 ") && !strings.Contains(out, "\n19\t") {
		// fixed-width: rank 19 line starts with "19"
		found := false
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "19") {
				found = true
			}
		}
		if !found {
			t.Fatalf("most loaded rank missing:\n%s", out)
		}
	}
}

func TestGantt(t *testing.T) {
	res := demoResult(t)
	out := Gantt(res, 40)
	if !strings.Contains(out, "p=physics") {
		t.Fatalf("legend missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // legend + 4 bars
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// The slowest rank's bar is the longest.
	bar := func(line string) int {
		open := strings.IndexByte(line, '|')
		close := strings.LastIndexByte(line, '|')
		return close - open
	}
	if bar(lines[4]) < bar(lines[2]) {
		t.Fatalf("rank 3's bar shorter than rank 1's:\n%s", out)
	}
	// Rank 0's bar contains wait cells.
	if !strings.Contains(lines[1], ".") {
		t.Fatalf("rank 0 bar has no wait cells:\n%s", out)
	}
}

func TestSummary(t *testing.T) {
	res := demoResult(t)
	out := Summary(res)
	for _, want := range []string{"ranks 4", "physics", "wait", "traffic: 1 messages"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestGanttSymbols: every phase has its own bar symbol, and the legend lists
// the accounted phases in phase order.
func TestGanttSymbols(t *testing.T) {
	m := sim.New(1, flatModel{})
	res, err := m.Run(func(p *sim.Proc) error {
		for ph := sim.NumPhases; ph > 0; ph-- {
			p.Account(ph-1, func() { p.Compute(100) })
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	legend, _, _ := strings.Cut(Gantt(res, 60), "\n")
	want := "d=dynamics-comm y=dynamics-fd f=filter m=misc p=physics s=sync .=wait -=other"
	if !strings.HasSuffix(legend, want) {
		t.Fatalf("legend %q, want it to end %q", legend, want)
	}
}
