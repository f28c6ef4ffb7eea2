package sim

import (
	"context"
	"errors"
	"testing"
	"time"
)

// pingPongForever is a two-rank program that makes progress indefinitely:
// it never finishes and never deadlocks, so only cancellation can end it.
func pingPongForever(p *Proc) error {
	peer := 1 - p.Rank()
	for {
		if p.Rank() == 0 {
			p.SendFloatsCopy(peer, 1, nil, 8)
			p.RecvFloatsInto(peer, 2, nil)
		} else {
			p.RecvFloatsInto(peer, 1, nil)
			p.SendFloatsCopy(peer, 2, nil, 8)
		}
		p.Compute(100)
	}
}

func TestRunContextCancelStopsLiveRun(t *testing.T) {
	m := New(2, newTestModel())
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	res, err := m.RunContext(ctx, pingPongForever)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	if res == nil {
		t.Fatal("canceled run must still return the partial Result")
	}
}

func TestRunContextDeadline(t *testing.T) {
	m := New(2, newTestModel())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := m.RunContext(ctx, pingPongForever)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded via CanceledError", err)
	}
}

func TestRunContextExpiredBeforeStart(t *testing.T) {
	m := New(2, newTestModel())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := m.RunContext(ctx, func(p *Proc) error {
		ran = true
		return nil
	})
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	if ran {
		t.Error("body must not run under an already-expired context")
	}
}

// TestWatchdogWinsOverCancel proves cancellation composes with the hang
// watchdog instead of racing it: a machine that is provably deadlocked
// reports the DeadlockError — with its wait-for graph — even though the
// run also carries a (generous) deadline.
func TestWatchdogWinsOverCancel(t *testing.T) {
	m := New(2, newTestModel())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err := m.RunContext(ctx, func(p *Proc) error {
		// Both ranks wait on tags nobody sends: an immediate deadlock.
		p.RecvFloatsInto(1-p.Rank(), 99, nil)
		return nil
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	var ce *CanceledError
	if errors.As(err, &ce) {
		t.Fatalf("deadlock misreported as cancellation: %v", err)
	}
}

// TestRunContextBackground checks that RunContext with a plain Background
// context behaves exactly like Run.
func TestRunContextBackground(t *testing.T) {
	m := New(3, newTestModel())
	res, err := m.RunContext(context.Background(), func(p *Proc) error {
		p.Compute(1000)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, c := range res.Clocks {
		if c <= 0 {
			t.Errorf("rank %d clock = %g, want > 0", r, c)
		}
	}
}
