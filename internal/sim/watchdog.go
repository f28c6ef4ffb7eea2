package sim

// Hang watchdog: the simulator's answer to the classic MPI failure mode in
// which one rank's mistake (a mismatched tag, an early exit, a crashed node)
// leaves every other rank blocked in a receive forever and the whole process —
// including `go test` — hangs with no diagnosis.
//
// Every rank that parks inside mailbox.take publishes the (src, tag) pair it
// waits for in its mailbox and joins the watchdog's one count of ranks that
// cannot post: parked with no satisfying message pending, finished, or dead
// (injected crash).  The count is exact because every transition is made under
// the lock that orders it with the matching post, the parked rank's own
// mailbox lock: a rank publishes only after finding its queue empty under that
// lock, and the first matching post thereafter un-publishes and un-counts it
// under the same lock.  A running rank is never counted, so the count reaches
// the machine size only when no message can ever be posted again: the machine
// is provably deadlocked (or simply done), and the add that got there aborts
// the run at once — bounded wall time, no timers — with a wait-for graph.
//
// Detection is event-driven and takes no lock on the message path: a post
// costs one atomic load of the destination's published key, a park or a
// matching post one atomic add.  Only the add that reaches the machine size
// takes the watchdog's mutex, once, to read the published keys.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// DeadlockError reports a machine-wide hang: every live rank blocked in a
// receive on a message that can never arrive.  Blocked lists the wait-for
// edges.
type DeadlockError struct {
	// Blocked holds one entry per parked rank, sorted by rank.
	Blocked []BlockedRank
	// Dead lists ranks removed by an injected crash before the hang.
	Dead []int
}

// BlockedRank is one node of the wait-for graph: Rank is parked in a receive
// waiting for a message from Src with the given (machine-level) Tag.
type BlockedRank struct {
	Rank, Src, Tag int
}

func (e *DeadlockError) Error() string {
	s := "sim: deadlock detected: all live ranks blocked in RecvFloatsInto:"
	for i, b := range e.Blocked {
		if i > 0 {
			s += ";"
		}
		s += fmt.Sprintf(" rank %d waiting on (src=%d, tag=%d)", b.Rank, b.Src, b.Tag)
	}
	if len(e.Dead) > 0 {
		s += fmt.Sprintf(" [crashed ranks: %v]", e.Dead)
	}
	return s
}

// CrashError reports an injected rank crash (see FaultHook.CrashTime): the
// rank stopped executing at virtual time At and sent nothing afterwards.
type CrashError struct {
	Rank int
	At   float64
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("sim: rank %d crashed at virtual time %.6gs (injected fault)", e.Rank, e.At)
}

// CanceledError reports that a RunContext was cut short by its context:
// the deadline passed or the caller cancelled while ranks were still
// running.  Cause is the context's error, so errors.Is(err,
// context.DeadlineExceeded) and errors.Is(err, context.Canceled)
// distinguish the two.  The run's Result reflects whatever the ranks had
// completed when the drain reached them and must not be treated as a
// finished simulation.
type CanceledError struct {
	Cause error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("sim: run canceled: %v", e.Cause)
}

// Unwrap exposes the context error for errors.Is/As.
func (e *CanceledError) Unwrap() error { return e.Cause }

// abortedError marks a rank whose receive was released by a machine abort
// (deadlock, peer panic or peer error); it is a victim, not a cause, and
// Run prefers any other error over it.
type abortedError struct {
	rank int
}

func (e *abortedError) Error() string {
	return fmt.Sprintf("sim: rank %d recv aborted (machine shut down)", e.rank)
}

// watchdog counts the ranks that cannot post and fires when that is all of
// them.
type watchdog struct {
	machine *Machine
	stuck   atomic.Int64 // ranks parked on a published key, finished or dead

	// closers tracks goroutines that may still be closing mailboxes (fire's,
	// RunContext's cancellation watcher); RunContext waits for them so none
	// reaches into the Machine's next Run.
	closers sync.WaitGroup

	mu      sync.Mutex
	dead    []int // ranks removed by an injected crash
	aborted bool  // an abort (deadlock or shutdown) is in progress
	err     *DeadlockError
}

// reset clears per-Run state, reopens every mailbox and empties every board.
func (w *watchdog) reset() {
	w.mu.Lock()
	w.stuck.Store(0)
	w.dead = nil
	w.aborted = false
	w.err = nil
	w.mu.Unlock()
	for _, b := range w.machine.boxes {
		b.reset()
	}
	for _, b := range w.machine.boards { // no rank runs: none is appending
		b.reset()
	}
}

// add counts one more rank that cannot post: one about to park (its mailbox
// lock held, its key just published) or one whose body returned or aborted.
func (w *watchdog) add() {
	if w.stuck.Add(1) == int64(w.machine.n) {
		w.fire()
	}
}

// crash records a rank removed by an injected fault.  Unlike shutdown, the
// rest of the machine keeps running: messages the dead rank already posted
// stay consumable, and ranks that come to depend on it park until the
// watchdog proves global quiescence.  The final blocked configuration is a
// fixpoint of the (deterministic) per-rank programs, so crashed runs remain
// bit-reproducible.
func (w *watchdog) crash(rank int) {
	w.mu.Lock()
	w.dead = append(w.dead, rank)
	w.mu.Unlock()
	w.add()
}

// shutdown marks an abort in progress (peer panic or error return) so a
// concurrent or later quiescence check does not misreport the drain as a
// deadlock.
func (w *watchdog) shutdown() {
	w.mu.Lock()
	w.aborted = true
	w.mu.Unlock()
	w.machine.closeAll()
}

// fire runs when every rank is counted stuck.  Nobody can post any more, so
// unless a shutdown got in first (it sets aborted before it closes anything)
// the published keys are frozen and readable without the mailbox locks, once
// the boards' registered arrivals are settled into them.  If nobody is parked
// every rank finished or died: nothing to report.
func (w *watchdog) fire() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.aborted {
		return
	}
	if w.machine.settleBoards(); w.stuck.Load() < int64(w.machine.n) {
		return // settling handed calls back to members, who run on
	}
	var blocked []BlockedRank // in rank order, as DeadlockError promises
	for rank, mb := range w.machine.boxes {
		if k := mb.waiting.Load(); k != noWait {
			blocked = append(blocked, BlockedRank{Rank: rank, Src: int(k >> 32), Tag: int(int32(k))})
		}
	}
	if blocked == nil {
		return
	}
	w.aborted = true
	w.err = &DeadlockError{Blocked: blocked, Dead: append([]int(nil), w.dead...)}
	sort.Ints(w.err.Dead)
	// Wake the parked ranks off this goroutine: closing takes each mailbox's
	// lock, and a caller about to park holds its own until cond.Wait.
	w.closers.Add(1)
	go func() {
		defer w.closers.Done()
		w.machine.closeAll()
	}()
}

// deadlock returns the deadlock error, if the watchdog fired.
func (w *watchdog) deadlock() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		return nil // typed nil must not escape into a non-nil error
	}
	return w.err
}
