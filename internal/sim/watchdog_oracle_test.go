package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// The watchdog this package shipped before the counter: every park, wake and
// post-while-anyone-is-parked takes one machine-wide mutex and edits a map of
// blocked ranks.  It is kept verbatim (names prefixed, the Machine replaced by
// the payload-free oracleMachine below) as the reference the counter must
// reproduce: same Blocked, same Dead, and silence on a clean program.

type oracleKey struct {
	source int
	tag    int
}

type oracleWatchdog struct {
	machine *oracleMachine

	// nblocked mirrors len(blocked) so the post fast path can skip the
	// lock when nothing is parked (the common case).
	nblocked atomic.Int32

	mu      sync.Mutex
	blocked map[int]oracleKey // rank -> awaited (source, tag), no satisfying message pending
	done    int               // ranks whose body returned nil
	dead    []int             // ranks removed by an injected crash
	aborted bool              // an abort (deadlock or shutdown) is in progress
	err     *DeadlockError
}

// block registers rank as parked waiting for k.  Called with the rank's own
// mailbox lock held, immediately before cond.Wait.
func (w *oracleWatchdog) block(rank int, k oracleKey) {
	w.mu.Lock()
	w.blocked[rank] = k
	w.nblocked.Store(int32(len(w.blocked)))
	w.checkLocked()
	w.mu.Unlock()
}

// unblock clears the registration after the rank wakes (if a post has not
// already cleared it).
func (w *oracleWatchdog) unblock(rank int) {
	w.mu.Lock()
	delete(w.blocked, rank)
	w.nblocked.Store(int32(len(w.blocked)))
	w.mu.Unlock()
}

// satisfied clears rank's registration when a message with exactly the
// awaited key is posted.  Called with the destination's mailbox lock held —
// the same lock block() holds — so a registered rank provably has no
// satisfying message pending.
func (w *oracleWatchdog) satisfied(rank int, k oracleKey) {
	if w.nblocked.Load() == 0 {
		return
	}
	w.mu.Lock()
	if bk, ok := w.blocked[rank]; ok && bk == k {
		delete(w.blocked, rank)
		w.nblocked.Store(int32(len(w.blocked)))
	}
	w.mu.Unlock()
}

// finish records a rank whose body returned nil.
func (w *oracleWatchdog) finish(rank int) {
	w.mu.Lock()
	w.done++
	w.checkLocked()
	w.mu.Unlock()
}

// crash records a rank removed by an injected fault.
func (w *oracleWatchdog) crash(rank int) {
	w.mu.Lock()
	w.dead = append(w.dead, rank)
	w.checkLocked()
	w.mu.Unlock()
}

// checkLocked fires the watchdog when every live rank is parked.  Caller
// holds w.mu.
func (w *oracleWatchdog) checkLocked() {
	if w.aborted || len(w.blocked) == 0 {
		return
	}
	if len(w.blocked)+w.done+len(w.dead) != w.machine.n {
		return
	}
	w.aborted = true
	e := &DeadlockError{Dead: append([]int(nil), w.dead...)}
	for rank, k := range w.blocked {
		e.Blocked = append(e.Blocked, BlockedRank{Rank: rank, Src: k.source, Tag: k.tag})
	}
	sort.Slice(e.Blocked, func(i, j int) bool { return e.Blocked[i].Rank < e.Blocked[j].Rank })
	sort.Ints(e.Dead)
	w.err = e
	// Wake the parked ranks.  Closing takes each mailbox's lock and the
	// caller of block() still holds its own until cond.Wait releases it,
	// so the close must happen off this goroutine.
	go w.machine.closeAll()
}

// oracleMailbox is the old mailbox's park/post protocol with the payloads
// and pools stripped: a queue is just a count of pending messages.
type oracleMailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[oracleKey]int
	closed bool
	rank   int
	wd     *oracleWatchdog
}

func (mb *oracleMailbox) post(source, tag int) {
	mb.mu.Lock()
	mb.queues[oracleKey{source, tag}]++
	mb.wd.satisfied(mb.rank, oracleKey{source, tag})
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

func (mb *oracleMailbox) take(source, tag int) bool {
	k := oracleKey{source, tag}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if mb.queues[k] > 0 {
			mb.queues[k]--
			return true
		}
		if mb.closed {
			return false
		}
		mb.wd.block(mb.rank, k)
		mb.cond.Wait()
		mb.wd.unblock(mb.rank)
	}
}

type oracleMachine struct {
	n     int
	boxes []*oracleMailbox
	wd    *oracleWatchdog
}

func (m *oracleMachine) closeAll() {
	for _, b := range m.boxes {
		b.mu.Lock()
		b.closed = true
		b.mu.Unlock()
		b.cond.Broadcast()
	}
}

// rankOp is one step of a rank program; a program that runs off its end
// returns nil.
type rankOp struct {
	kind      byte // 's' send, 'r' recv, 'c' crash
	peer, tag int
}

// runOracle interprets progs on the old protocol and returns its verdict.
func runOracle(progs [][]rankOp) *DeadlockError {
	m := &oracleMachine{n: len(progs)}
	m.wd = &oracleWatchdog{machine: m, blocked: make(map[int]oracleKey)}
	for r := range progs {
		mb := &oracleMailbox{queues: make(map[oracleKey]int), rank: r, wd: m.wd}
		mb.cond = sync.NewCond(&mb.mu)
		m.boxes = append(m.boxes, mb)
	}
	var wg sync.WaitGroup
	for r := range progs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for _, op := range progs[r] {
				switch op.kind {
				case 's':
					m.boxes[op.peer].post(r, op.tag)
				case 'r':
					if !m.boxes[r].take(op.peer, op.tag) {
						m.wd.finish(r) // an aborted rank, as Run counts it
						return
					}
				case 'c':
					m.wd.crash(r)
					return
				}
			}
			m.wd.finish(r)
		}(r)
	}
	wg.Wait()
	return m.wd.err
}

// runCounter interprets progs on a real Machine and returns the watchdog's
// verdict alongside Run's error.  A crash op panics with the *CrashError an
// injected fault raises, which is the whole of what Run sees of one.
func runCounter(progs [][]rankOp) (*DeadlockError, error) {
	m := New(len(progs), newTestModel())
	_, err := m.Run(func(p *Proc) error {
		for _, op := range progs[p.Rank()] {
			switch op.kind {
			case 's':
				p.SendFloatsCopy(op.peer, op.tag, nil, 8)
			case 'r':
				p.RecvFloatsInto(op.peer, op.tag, nil)
			case 'c':
				panic(&CrashError{Rank: p.Rank(), At: p.Clock()})
			}
		}
		return nil
	})
	de, _ := m.wd.deadlock().(*DeadlockError)
	return de, err
}

// randomPrograms builds a deadlock-free set of rank programs — every recv is
// preceded, in one global order, by its send, and sends never block — and then
// breaks it `faults` times: a recv retagged to something nobody sends, a rank
// that exits early, a rank that crashes.
func randomPrograms(rng *rand.Rand, faults int) [][]rankOp {
	n := 2 + rng.Intn(15)
	progs := make([][]rankOp, n)
	for i, msgs := 0, n*(1+rng.Intn(8)); i < msgs; i++ {
		src, dst, tag := rng.Intn(n), rng.Intn(n), rng.Intn(3)
		progs[src] = append(progs[src], rankOp{'s', dst, tag})
		progs[dst] = append(progs[dst], rankOp{'r', src, tag})
	}
	for ; faults > 0; faults-- {
		r := rng.Intn(n)
		if len(progs[r]) == 0 {
			continue
		}
		at := rng.Intn(len(progs[r]))
		switch rng.Intn(3) {
		case 0:
			if op := &progs[r][at]; op.kind == 'r' {
				op.tag = 99
			}
		case 1:
			progs[r] = progs[r][:at]
		case 2:
			progs[r] = append(progs[r][:at:at], rankOp{kind: 'c'})
		}
	}
	return progs
}

// TestDeadlockDifferentialOracle drives the counter watchdog and the
// map-under-lock oracle with the same seeded random programs.  The final
// blocked configuration is a fixpoint of the per-rank programs, not of the
// schedule, so the two verdicts must be identical.
func TestDeadlockDifferentialOracle(t *testing.T) {
	deadlocks := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		faults := rng.Intn(4)
		progs := randomPrograms(rng, faults)
		want := runOracle(progs)
		got, err := runCounter(progs)
		if faults == 0 && (got != nil || want != nil || err != nil) {
			t.Fatalf("seed %d: clean program tripped: counter %v, oracle %v, Run error %v", seed, got, want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (%d ranks):\ncounter: %v\noracle:  %v\nprograms: %s", seed, len(progs), got, want, fmt.Sprint(progs))
		}
		if want != nil {
			deadlocks++
		}
	}
	if deadlocks < 50 {
		t.Fatalf("only %d of 300 programs deadlocked: the generator no longer exercises the watchdog", deadlocks)
	}
}
