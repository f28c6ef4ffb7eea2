package fault

import (
	"errors"
	"math"
	"strings"
	"testing"

	"agcm/internal/sim"
)

// testModel mirrors the sim package's unit-friendly cost model.
type testModel struct{}

func (testModel) FlopSeconds(n float64) float64         { return n * 1e-6 }
func (testModel) MemSeconds(n float64) float64          { return n * 1e-8 }
func (testModel) SendOverheadSeconds(bytes int) float64 { return 1e-5 }
func (testModel) RecvOverheadSeconds(bytes int) float64 { return 1e-5 }
func (testModel) NetworkSeconds(bytes int) float64      { return 1e-4 + float64(bytes)*1e-7 }

// ringProgram is the workload used by the determinism tests: a ring
// exchange with compute between rounds, exercising Compute, Send and Recv
// on every rank.
func ringProgram(rounds int) func(p *sim.Proc) error {
	return func(p *sim.Proc) error {
		next := (p.Rank() + 1) % p.Ranks()
		prev := (p.Rank() + p.Ranks() - 1) % p.Ranks()
		for i := 0; i < rounds; i++ {
			p.Compute(1e4)
			p.SendFloatsCopy(next, i, nil, 128)
			p.RecvFloatsInto(prev, i, nil)
		}
		return nil
	}
}

// TestDeterminismUnderFaults is the satellite requirement: for every fault
// kind, the same seed and spec must yield bit-identical Clocks,
// MessagesSent and WaitSeconds across repeated runs.
func TestDeterminismUnderFaults(t *testing.T) {
	cases := []struct {
		name      string
		spec      *Spec
		wantError bool
	}{
		{"slowdown", &Spec{Seed: 7,
			Slowdowns: []Slowdown{{Rank: 1, At: 0.01, Factor: 3}}}, false},
		{"jitter", &Spec{Seed: 7, Jitter: &Jitter{Max: 2e-4}}, false},
		{"drop-retry", &Spec{Seed: 7,
			Drop: &Drop{Prob: 0.2, Retries: 8, Timeout: 5e-4}}, false},
		{"crash", &Spec{Seed: 7,
			Crashes: []Crash{{Rank: 2, At: 0.02}}}, true},
		{"combined", &Spec{Seed: 7,
			Slowdowns: []Slowdown{{Rank: 0, At: 0.005, Factor: 2}},
			Jitter:    &Jitter{Max: 1e-4},
			Drop:      &Drop{Prob: 0.05, Retries: 8, Timeout: 1e-4}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() (*sim.Result, error) {
				m := sim.New(4, testModel{})
				m.SetFaultHook(NewInjector(tc.spec))
				return m.Run(ringProgram(40))
			}
			ref, refErr := run()
			if tc.wantError != (refErr != nil) {
				t.Fatalf("error = %v, wantError = %v", refErr, tc.wantError)
			}
			for trial := 0; trial < 3; trial++ {
				res, err := run()
				if (err == nil) != (refErr == nil) ||
					(err != nil && err.Error() != refErr.Error()) {
					t.Fatalf("trial %d: error %v, want %v", trial, err, refErr)
				}
				for r := 0; r < 4; r++ {
					if res.Clocks[r] != ref.Clocks[r] {
						t.Fatalf("trial %d: rank %d clock %v, want %v",
							trial, r, res.Clocks[r], ref.Clocks[r])
					}
					if res.MessagesSent[r] != ref.MessagesSent[r] {
						t.Fatalf("trial %d: rank %d sent %d, want %d",
							trial, r, res.MessagesSent[r], ref.MessagesSent[r])
					}
					if res.WaitSeconds[r] != ref.WaitSeconds[r] {
						t.Fatalf("trial %d: rank %d wait %v, want %v",
							trial, r, res.WaitSeconds[r], ref.WaitSeconds[r])
					}
				}
			}
		})
	}
}

// TestSlowdownStretchesOnlyVictim: the degraded rank finishes later than in
// a healthy run; untouched single-rank work is not stretched.
func TestSlowdownStretchesOnlyVictim(t *testing.T) {
	healthy := func() *sim.Result {
		m := sim.New(2, testModel{})
		res, err := m.Run(func(p *sim.Proc) error {
			p.Compute(1e6) // 1 virtual second
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	m := sim.New(2, testModel{})
	m.SetFaultHook(NewInjector(&Spec{
		Slowdowns: []Slowdown{{Rank: 1, At: 0.25, Factor: 4}},
	}))
	res, err := m.Run(func(p *sim.Proc) error {
		p.Compute(1e6)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clocks[0] != healthy.Clocks[0] {
		t.Fatalf("rank 0 clock %v, want untouched %v", res.Clocks[0], healthy.Clocks[0])
	}
	// 0.25s healthy + 0.75s at factor 4 = 3.25s.
	if want := 3.25; math.Abs(res.Clocks[1]-want) > 1e-12 {
		t.Fatalf("rank 1 clock %v, want %v", res.Clocks[1], want)
	}
}

// TestComputeSecondsPiecewise checks the onset-straddling arithmetic
// directly.
func TestComputeSecondsPiecewise(t *testing.T) {
	in := NewInjector(&Spec{Slowdowns: []Slowdown{{Rank: 0, At: 10, Factor: 3}}})
	cases := []struct{ start, dt, want float64 }{
		{0, 5, 5},     // entirely before onset
		{10, 5, 15},   // entirely after
		{8, 4, 2 + 6}, // straddling: 2 healthy + 2*3 degraded
		{0, 5, 5},
	}
	for _, c := range cases {
		if got := in.ComputeSeconds(0, c.start, c.dt); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("ComputeSeconds(0, %g, %g) = %g, want %g", c.start, c.dt, got, c.want)
		}
	}
	if got := in.ComputeSeconds(1, 8, 4); got != 4 {
		t.Fatalf("other rank stretched: got %g, want 4", got)
	}
}

// TestDropExhaustionAborts: with drop probability ~1 every attempt fails
// and the sending rank must abort with the link-down error.
func TestDropExhaustionAborts(t *testing.T) {
	m := sim.New(2, testModel{})
	m.SetFaultHook(NewInjector(&Spec{
		Drop: &Drop{Prob: 0.999999, Retries: 2, Timeout: 1e-3},
	}))
	_, err := m.Run(ringProgram(5))
	if err == nil || !strings.Contains(err.Error(), "link declared down") {
		t.Fatalf("Run error = %v, want link-down abort", err)
	}
}

// TestJitterBounded: every message's extra delay stays in [0, Max).
func TestJitterBounded(t *testing.T) {
	in := NewInjector(&Spec{Seed: 3, Jitter: &Jitter{Max: 1e-3}})
	for seq := int64(1); seq <= 1000; seq++ {
		extra, err := in.SendDelay(0, 1, 0, seq, 0)
		if err != nil {
			t.Fatal(err)
		}
		if extra < 0 || extra >= 1e-3 {
			t.Fatalf("seq %d: jitter %g outside [0, 1e-3)", seq, extra)
		}
	}
}

// TestCrashInRecvWait: a rank whose crash time falls inside a Recv wait
// dies at the crash instant, not at the message arrival.
func TestCrashInRecvWait(t *testing.T) {
	m := sim.New(2, testModel{})
	m.SetFaultHook(NewInjector(&Spec{Crashes: []Crash{{Rank: 1, At: 0.5}}}))
	res, err := m.Run(func(p *sim.Proc) error {
		if p.Rank() == 0 {
			p.Compute(2e6) // 2 virtual seconds before sending
			p.SendFloatsCopy(1, 0, nil, 8)
			return nil
		}
		p.RecvFloatsInto(0, 0, nil) // message arrives ~2s, crash at 0.5s
		return nil
	})
	var ce *sim.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("Run error = %v, want *CrashError", err)
	}
	if ce.Rank != 1 {
		t.Fatalf("crash rank = %d, want 1", ce.Rank)
	}
	if res.Clocks[1] != 0.5 {
		t.Fatalf("victim clock %v, want 0.5", res.Clocks[1])
	}
	if res.WaitSeconds[1] != 0.5 {
		t.Fatalf("victim wait %v, want 0.5 (waited from 0 to crash)", res.WaitSeconds[1])
	}
}

func TestValidateRejections(t *testing.T) {
	bad := []*Spec{
		{Slowdowns: []Slowdown{{Rank: -1, At: 0, Factor: 2}}},
		{Slowdowns: []Slowdown{{Rank: 0, At: 0, Factor: 1}}},
		{Crashes: []Crash{{Rank: 0, At: -1}}},
		{Jitter: &Jitter{Max: 0}},
		{Drop: &Drop{Prob: 1}},
		{Drop: &Drop{Prob: 0.5, Retries: -1}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate() accepted %+v", i, s)
		}
	}
	if err := (&Spec{}).Validate(); err != nil {
		t.Errorf("empty spec rejected: %v", err)
	}
}

func TestEmpty(t *testing.T) {
	var nilSpec *Spec
	if !nilSpec.Empty() || !(&Spec{Seed: 9}).Empty() {
		t.Fatal("nil / seed-only specs should be Empty")
	}
	if (&Spec{Jitter: &Jitter{Max: 1}}).Empty() {
		t.Fatal("jitter spec should not be Empty")
	}
}
