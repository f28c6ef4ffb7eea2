package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// boardTag is the machine-level tag of the test ring's messages.
const boardTag = 3<<16 + 65529

// ringProgram is member me's ring allgather over n members: at step s it
// forwards the chunk it holds to me+1 and receives chunk me-s from me-1.
func ringProgram(me, n int) []Step {
	var steps []Step
	cur := me
	for s := 1; s < n; s++ {
		steps = append(steps, Step{Kind: StepSend, Peer: int32((me + 1) % n), Buf: int32(cur), Tag: boardTag})
		cur = (cur - 1 + n) % n
		steps = append(steps, Step{Kind: StepRecv, Peer: int32((me - 1 + n) % n), Buf: int32(cur), Tag: boardTag})
	}
	return steps
}

// ringOnBoard runs one ring allgather of ranks [0, n) on the machine's test
// board and returns what the member received.
func ringOnBoard(p *Proc, n int) [][]float64 {
	world := make([]int, n)
	for i := range world {
		world[i] = i
	}
	out := make([][]float64, n)
	out[p.Rank()] = []float64{float64(p.Rank()), float64(p.Rank()) / 3}
	BoardFor(p, "ring", world).Run(p.Rank(), ringProgram(p.Rank(), n), out, out)
	return out
}

// boardProgram is a complete program for the reuse checks: three rings of
// every rank with rank-varying compute between them.
func boardProgram(p *Proc) error {
	for i := 0; i < 3; i++ {
		p.Timed("compute", func() { p.Compute(float64(1000 * (1 + p.Rank()*i))) })
		out := ringOnBoard(p, p.Ranks())
		for r, o := range out {
			if len(o) != 2 || o[0] != float64(r) {
				return fmt.Errorf("rank %d got chunk %d = %v", p.Rank(), r, o)
			}
		}
	}
	return nil
}

// runWithin runs fn and fails the test if it has not returned in 10 s.
func runWithin(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run still blocked 10s into the test: a board waiter was not released")
	}
}

// awaitStuck spins until k ranks are counted stuck.
func awaitStuck(m *Machine, k int64) {
	for m.wd.stuck.Load() < k {
		runtime.Gosched()
	}
}

// TestBoardReleasePaths: a member waiting at a board for a peer that never
// arrives is released with an abortedError by each way a Run aborts — its
// context cancelled, a peer's panic, a peer's error return — and the
// aborted Run leaves nothing on the board: the next Run on the machine is
// bit-identical to one on a fresh machine.
func TestBoardReleasePaths(t *testing.T) {
	boom := errors.New("boom")
	aborts := map[string]struct {
		abort func(m *Machine, cancel func()) error // rank 2's body
		check func(err error) bool
	}{
		"cancel": {
			func(m *Machine, cancel func()) error {
				cancel()
				for { // running, so the watchdog cannot fire first
					m.boxes[2].mu.Lock()
					closed := m.boxes[2].closed
					m.boxes[2].mu.Unlock()
					if closed {
						return nil
					}
					runtime.Gosched()
				}
			},
			func(err error) bool { return errors.Is(err, context.Canceled) },
		},
		"panic": {
			func(*Machine, func()) error { panic("boom") },
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "rank 2 panicked: boom") },
		},
		"error": {
			func(*Machine, func()) error { return boom },
			func(err error) bool { return errors.Is(err, boom) },
		},
	}
	for name, a := range aborts {
		m := New(3, newTestModel())
		m.SetEventLog(true)
		var err error
		runWithin(t, func() {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err = m.RunContext(ctx, func(p *Proc) error {
				if p.Rank() == 2 {
					awaitStuck(m, 2) // ranks 0 and 1 wait at the board for rank 2
					return a.abort(m, cancel)
				}
				ringOnBoard(p, 3)
				return nil
			})
		})
		if !a.check(err) {
			t.Fatalf("%s: Run error = %v", name, err)
		}
		var got, want *Result
		runWithin(t, func() { got, err = m.Run(boardProgram) })
		if err != nil {
			t.Fatalf("%s: next Run on the machine: %v", name, err)
		}
		fresh := New(3, newTestModel())
		fresh.SetEventLog(true)
		if want, err = fresh.Run(boardProgram); err != nil {
			t.Fatal(err)
		}
		if g, w := fmt.Sprintf("%+v", *got), fmt.Sprintf("%+v", *want); g != w {
			t.Fatalf("%s: next Run differs from a fresh machine's:\n got %s\nwant %s", name, g, w)
		}
	}
}

// TestBoardDeadlockKeys: members at a board publish the receive each would
// be blocked on as messages.  With rank 2 skipping a ring of three, rank 0
// waits on rank 2's first chunk and rank 1, having forwarded rank 0's, on
// rank 0's second.
func TestBoardDeadlockKeys(t *testing.T) {
	m := New(3, newTestModel())
	var err error
	runWithin(t, func() {
		_, err = m.Run(func(p *Proc) error {
			if p.Rank() != 2 {
				ringOnBoard(p, 3)
			}
			return nil
		})
	})
	var de *DeadlockError
	want := []BlockedRank{{Rank: 0, Src: 2, Tag: boardTag}, {Rank: 1, Src: 0, Tag: boardTag}}
	if !errors.As(err, &de) || !reflect.DeepEqual(de.Blocked, want) || len(de.Dead) != 0 {
		t.Fatalf("err = %v, want a deadlock with %v", err, want)
	}
}

// TestBoardCrashLeavesWaitersParked: a member that crashes inside a board's
// replay raises its *CrashError on its own goroutine, and the members left
// waiting for it stay parked under their keys until the watchdog proves the
// hang; the next Run starts clean.
func TestBoardCrashLeavesWaitersParked(t *testing.T) {
	m := New(3, newTestModel())
	m.SetFaultHook(&stubFault{crashAt: map[int]float64{1: 1e-5}}) // during its first send
	var err error
	runWithin(t, func() {
		_, err = m.Run(func(p *Proc) error {
			ringOnBoard(p, 3)
			return nil
		})
	})
	var ce *CrashError
	if !errors.As(err, &ce) || ce.Rank != 1 {
		t.Fatalf("err = %v, want rank 1's crash", err)
	}
	if de, ok := m.wd.deadlock().(*DeadlockError); !ok || len(de.Blocked) != 2 || !reflect.DeepEqual(de.Dead, []int{1}) {
		t.Fatalf("watchdog recorded %v, want ranks 0 and 2 blocked and rank 1 dead", m.wd.deadlock())
	}
	m.SetFaultHook(nil)
	runWithin(t, func() { _, err = m.Run(boardProgram) })
	if err != nil {
		t.Fatalf("next Run: %v", err)
	}
}
