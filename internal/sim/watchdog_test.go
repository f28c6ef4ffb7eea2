package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// stubFault is a minimal FaultHook for tests: optional per-rank crash
// times, no slowdown, no message faults.
type stubFault struct {
	crashAt map[int]float64
}

func (s *stubFault) ComputeSeconds(rank int, start, dt float64) float64 { return dt }
func (s *stubFault) SendDelay(src, dst, tag int, seq int64, now float64) (float64, error) {
	return 0, nil
}
func (s *stubFault) CrashTime(rank int) float64 {
	if t, ok := s.crashAt[rank]; ok {
		return t
	}
	return math.Inf(1)
}

// TestDeadlockMismatchedTags is the acceptance scenario: a program whose
// ranks wait on tags nobody sends must abort within bounded wall time with
// an error naming at least one blocked (rank, src, tag) triple.
func TestDeadlockMismatchedTags(t *testing.T) {
	m := New(2, newTestModel())
	start := time.Now()
	_, err := m.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			p.SendFloatsCopy(1, 1, nil, 8) // tag 1, but rank 1 waits for tag 2
			p.RecvFloatsInto(1, 3, nil)
		} else {
			p.RecvFloatsInto(0, 2, nil)
		}
		return nil
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadlock abort took %v, want < 5s", elapsed)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run error = %v, want *DeadlockError", err)
	}
	if len(de.Blocked) != 2 {
		t.Fatalf("Blocked = %+v, want both ranks", de.Blocked)
	}
	want := BlockedRank{Rank: 1, Src: 0, Tag: 2}
	found := false
	for _, b := range de.Blocked {
		if b == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("Blocked = %+v, missing %+v", de.Blocked, want)
	}
	if msg := err.Error(); !strings.Contains(msg, "rank 1 waiting on (src=0, tag=2)") {
		t.Fatalf("error %q does not name the blocked triple", msg)
	}
}

// TestDeadlockSingleRankSelfWait: one rank waiting on a message it never
// sent itself is the smallest possible deadlock.
func TestDeadlockSingleRankSelfWait(t *testing.T) {
	m := New(1, newTestModel())
	_, err := m.Run(func(p *Proc) error {
		p.RecvFloatsInto(0, 7, nil)
		return nil
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run error = %v, want *DeadlockError", err)
	}
}

// TestNoFalseDeadlockUnderLoad: a correct many-message program must never
// trip the watchdog even though ranks block transiently all the time — at 240
// ranks somebody is parked at every instant, so the count hovers just below
// the machine size throughout.
func TestNoFalseDeadlockUnderLoad(t *testing.T) {
	for _, ranks := range []int{4, 240} {
		m := New(ranks, newTestModel())
		_, err := m.Run(func(p *Proc) error {
			next := (p.Rank() + 1) % p.Ranks()
			prev := (p.Rank() + p.Ranks() - 1) % p.Ranks()
			for i := 0; i < 200; i++ {
				p.SendFloatsCopy(next, i, []float64{float64(i)}, 8)
				if got := p.RecvFloatsInto(prev, i, nil); len(got) != 1 || got[0] != float64(i) {
					t.Errorf("rank %d: recv %v, want [%d]", p.Rank(), got, i)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%d ranks: Run: %v", ranks, err)
		}
	}
}

// TestNonMatchingPostNeitherUnblocksNorIsLost: a post on a key the owner is
// not parked on must leave the published key and the watchdog's count alone
// (clearing them would blind the watchdog to a later deadlock) and must still
// be delivered when the owner comes to ask for it.
func TestNonMatchingPostNeitherUnblocksNorIsLost(t *testing.T) {
	const first, second = 1.0, 2.0
	m := New(2, newTestModel())
	_, err := m.Run(func(p *Proc) error {
		if p.Rank() == 1 {
			if got := p.RecvFloatsInto(0, 5, nil); len(got) != 1 || got[0] != second {
				return fmt.Errorf("RecvFloatsInto(0, 5) = %v, want [%v]", got, second)
			}
			if got := p.RecvFloatsInto(0, 6, nil); len(got) != 1 || got[0] != first {
				return fmt.Errorf("RecvFloatsInto(0, 6) = %v, want [%v]", got, first)
			}
			return nil
		}
		box := m.boxes[1]
		for box.waiting.Load() != qkey(0, 5) {
			runtime.Gosched() // until rank 1 is parked on (0, 5)
		}
		p.SendFloatsCopy(1, 6, []float64{first}, 8)
		if k, n := box.waiting.Load(), m.wd.stuck.Load(); k != qkey(0, 5) || n != 1 {
			return fmt.Errorf("after a tag-6 post: published key %#x, %d ranks counted stuck; want %#x and 1", k, n, qkey(0, 5))
		}
		p.SendFloatsCopy(1, 5, []float64{second}, 8)
		if k := box.waiting.Load(); k != noWait {
			return fmt.Errorf("after the matching post: published key %#x, want none", k)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMachineReuseAfterAbort: a Run that ends in an abort leaves undelivered
// messages and closed mailboxes behind; the next Run on the same Machine must
// see neither.  Before mailboxes were reset per Run, the second Run below
// received the first one's stale message.
func TestMachineReuseAfterAbort(t *testing.T) {
	const stale, fresh = -1.0, 1.0
	aborts := map[string]func(m *Machine) error{
		"deadlock": func(m *Machine) error {
			_, err := m.Run(func(p *Proc) error {
				if p.Rank() == 0 {
					p.SendFloatsCopy(1, 7, []float64{stale}, 8)
				}
				p.RecvFloatsInto(1-p.Rank(), 9, nil) // nobody sends tag 9
				return nil
			})
			var de *DeadlockError
			if !errors.As(err, &de) {
				return fmt.Errorf("first Run error = %v, want *DeadlockError", err)
			}
			return nil
		},
		"cancel": func(m *Machine) error {
			ctx, cancel := context.WithCancel(context.Background())
			_, err := m.RunContext(ctx, func(p *Proc) error {
				if p.Rank() == 0 {
					p.SendFloatsCopy(1, 7, []float64{stale}, 8)
					cancel()
				}
				return pingPongForever(p)
			})
			if !errors.Is(err, context.Canceled) {
				return fmt.Errorf("first Run error = %v, want context.Canceled", err)
			}
			return nil
		},
	}
	for name, abort := range aborts {
		m := New(2, newTestModel())
		if err := abort(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, err := m.Run(func(p *Proc) error {
			if p.Rank() == 0 {
				p.SendFloatsCopy(1, 7, []float64{fresh}, 8)
			} else if got := p.RecvFloatsInto(0, 7, nil); len(got) != 1 || got[0] != fresh {
				return fmt.Errorf("second Run received %v, want [%v] (fresh)", got, fresh)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: second Run on the same Machine: %v", name, err)
		}
	}
}

// TestErrorReturnUnblocksReceivers is the regression test for the
// mailbox-close bug: a rank returning a plain error (not panicking) must
// shut the machine down rather than leave its peers blocked forever.
func TestErrorReturnUnblocksReceivers(t *testing.T) {
	boom := errors.New("boom")
	m := New(3, newTestModel())
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = m.Run(func(p *Proc) error {
			if p.Rank() == 2 {
				return boom
			}
			p.RecvFloatsInto(2, 0, nil) // never satisfied
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run still blocked 5s after a rank returned an error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
}

// TestInjectedCrashReported: a fault-hook crash surfaces as *CrashError
// carrying the victim and the virtual crash time, and the victim's clock
// freezes exactly at the injected instant.
func TestInjectedCrashReported(t *testing.T) {
	m := New(2, newTestModel())
	m.SetFaultHook(&stubFault{crashAt: map[int]float64{1: 0.5}})
	res, err := m.Run(func(p *Proc) error {
		for i := 0; i < 100; i++ {
			p.Compute(1e5) // 0.1 virtual seconds per iteration
			p.SendFloatsCopy(1-p.Rank(), i, nil, 8)
			p.RecvFloatsInto(1-p.Rank(), i, nil)
		}
		return nil
	})
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("Run error = %v, want *CrashError", err)
	}
	if ce.Rank != 1 || ce.At != 0.5 {
		t.Fatalf("crash = rank %d at %g, want rank 1 at 0.5", ce.Rank, ce.At)
	}
	if res == nil {
		t.Fatal("Run returned a nil Result alongside the crash")
	}
	if res.Clocks[1] != 0.5 {
		t.Fatalf("victim clock = %g, want frozen at 0.5", res.Clocks[1])
	}
}

// TestInjectedCrashDeterministic: the post-crash drain of the healthy
// ranks must be scheduling-independent — identical Clocks and WaitSeconds
// across repeated runs.
func TestInjectedCrashDeterministic(t *testing.T) {
	run := func() (*Result, error) {
		m := New(4, newTestModel())
		m.SetFaultHook(&stubFault{crashAt: map[int]float64{2: 0.0421}})
		return m.Run(func(p *Proc) error {
			next := (p.Rank() + 1) % p.Ranks()
			prev := (p.Rank() + p.Ranks() - 1) % p.Ranks()
			for i := 0; i < 50; i++ {
				p.Compute(1e3)
				p.SendFloatsCopy(next, i, nil, 16)
				p.RecvFloatsInto(prev, i, nil)
			}
			return nil
		})
	}
	ref, refErr := run()
	var ce *CrashError
	if !errors.As(refErr, &ce) {
		t.Fatalf("Run error = %v, want *CrashError", refErr)
	}
	for trial := 0; trial < 3; trial++ {
		res, err := run()
		if err == nil || err.Error() != refErr.Error() {
			t.Fatalf("trial %d: error %v, want %v", trial, err, refErr)
		}
		for r := range ref.Clocks {
			if res.Clocks[r] != ref.Clocks[r] {
				t.Fatalf("trial %d: rank %d clock %v, want %v",
					trial, r, res.Clocks[r], ref.Clocks[r])
			}
			if res.WaitSeconds[r] != ref.WaitSeconds[r] {
				t.Fatalf("trial %d: rank %d wait %v, want %v",
					trial, r, res.WaitSeconds[r], ref.WaitSeconds[r])
			}
		}
	}
}

// TestZeroFaultHookFree: installing no hook must leave behaviour identical
// to the seed — this pins the fast path used by every existing caller.
func TestZeroFaultHookFree(t *testing.T) {
	prog := func(p *Proc) error {
		p.Compute(1e4)
		p.SendFloatsCopy(1-p.Rank(), 0, nil, 64)
		p.RecvFloatsInto(1-p.Rank(), 0, nil)
		return nil
	}
	a, err := New(2, newTestModel()).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	m := New(2, newTestModel())
	m.SetFaultHook(&stubFault{}) // hook installed but injects nothing
	b, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	for r := range a.Clocks {
		if a.Clocks[r] != b.Clocks[r] {
			t.Fatalf("rank %d: clock %v with no-op hook, want %v", r, b.Clocks[r], a.Clocks[r])
		}
	}
}
