// Package sim implements a deterministic virtual-time simulator for a
// distributed-memory message-passing machine.
//
// The simulator plays the role of the Intel Paragon and Cray T3D systems used
// in the paper: every simulated processor (rank) runs as its own goroutine
// and owns a virtual clock measured in seconds.  Computation advances the
// local clock through a CostModel; messages carry the sender's clock and the
// receiver's clock is advanced to the message arrival time on receipt.  The
// result is a LogGP-flavoured performance simulation in which load imbalance,
// message latency and bandwidth effects emerge from the actual algorithm and
// the actual data being moved, not from closed-form formulas.
//
// Virtual time never depends on wall-clock time or on the Go scheduler:
// messages are matched by (source, tag) in FIFO order, so any program that is
// deterministic per rank produces bit-identical clocks on every run.
//
// There is one kind of message: a []float64 sent by value.  SendFloatsCopy
// copies the sender's slice into a buffer owned by the destination's mailbox
// and RecvFloatsInto copies it out into the receiver's own buffer, so the one
// ownership rule is that the sender keeps its slice and the receiver owns its
// own; no slice is ever reachable from two ranks.  The wire size charged to
// the clocks is a separate argument, so a zero-length message with bytes = 0
// is a pure synchronisation token.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// CostModel translates abstract work (floating point operations, memory
// traffic, message bytes) into virtual seconds.  Implementations live in
// package machine; sim only consumes the interface.
type CostModel interface {
	// FlopSeconds returns the virtual time to execute n floating point
	// operations out of registers/cache.
	FlopSeconds(n float64) float64
	// MemSeconds returns the virtual time attributable to moving n bytes
	// between memory and the processor (the cache-miss cost component).
	MemSeconds(n float64) float64
	// SendOverheadSeconds is the CPU occupancy on the sender per message.
	SendOverheadSeconds(bytes int) float64
	// RecvOverheadSeconds is the CPU occupancy on the receiver per message.
	RecvOverheadSeconds(bytes int) float64
	// NetworkSeconds is the in-flight time of a message: latency plus
	// serialization at the network bandwidth.
	NetworkSeconds(bytes int) float64
}

// FaultHook injects deterministic perturbations into a machine (see package
// fault for the standard seeded implementation).  All decisions must be pure
// functions of their arguments so faulty runs stay bit-reproducible; the
// zero-fault path pays only a nil check.
type FaultHook interface {
	// ComputeSeconds maps a compute interval starting at virtual time
	// `start` with nominal duration dt to its perturbed duration (e.g. a
	// slowdown whose onset the interval straddles).  Must return dt when
	// the rank is unaffected.
	ComputeSeconds(rank int, start, dt float64) float64
	// SendDelay returns extra in-flight delay for the message with the
	// sender-local sequence number seq (jitter, drop-and-retransmit
	// timeouts).  A non-nil error means delivery failed permanently
	// (retry budget exhausted) and aborts the sending rank.
	SendDelay(src, dst, tag int, seq int64, now float64) (float64, error)
	// CrashTime returns the virtual time at which the rank dies, or
	// +Inf for a healthy rank.  A crashed rank stops executing at that
	// instant; messages it already posted remain deliverable.
	CrashTime(rank int) float64
}

// message is an in-flight point-to-point message: a private copy of the
// sender's floats plus what the receiver needs to charge for it.  Messages are
// intrusive list nodes: next links one into its queue while in flight and into
// that queue's free list while idle.  floats is the mailbox's own buffer and
// never leaves the message; a post reslices it within its capacity.
type message struct {
	next   *message
	floats []float64
	bytes  int     // wire size used for timing, independent of len(floats)
	arrive float64 // virtual arrival time at the receiver
	seq    int64   // per-sender sequence number, for event logging
}

// maxTag bounds the tags a message may carry: [0, maxTag).  In that range
// qkey is injective and the watchdog decodes a published tag exactly.
const maxTag = 1 << 31

// qkey packs a (source, tag) pair into one word, so a parked rank publishes
// its pair in one atomic store.  Ranks and tags both fit in 31 bits.
func qkey(source, tag int) uint64 {
	return uint64(uint32(source))<<32 | uint64(uint32(tag))
}

// noWait is the published key of a rank that is not parked; its source half
// is no valid rank, so no post matches it.
const noWait = ^uint64(0)

// msgQueue is the FIFO of in-flight messages of one (source, tag) stream,
// linked through message.next and empty when head is nil: a list has nothing
// to grow however far a sender runs ahead of its receiver.  free holds the
// stream's idle messages, so a post reuses what an earlier take returned.
type msgQueue struct {
	head, tail *message
	free       *message
	tag        int
	sib        *msgQueue // next queue of the same source
	link       *msgQueue // next in the mailbox's list of all its queues
}

// queuePage holds the queue chains of 64 consecutive sources.
type queuePage [pageSize]*msgQueue

// Slab and table sizes.  A cold mailbox needs tens of messages, queues and
// tiny payloads: chunks this small make that a handful of allocations, under
// 2 KiB unused.
const (
	msgChunk    = 16  // messages per chunk
	queueChunk  = 16  // queues per chunk
	floatChunk  = 128 // floats per payload chunk
	carveFloats = 32  // longest payload carved from a chunk; longer ones are made whole
	pageBits    = 6
	pageSize    = 1 << pageBits // sources per queue page
)

// carve returns the next zeroed element of *slab, starting a new chunk when
// the current one is used up.
func carve[T any](slab *[]T, chunk int) *T {
	if len(*slab) == 0 {
		*slab = make([]T, chunk)
	}
	p := &(*slab)[0]
	*slab = (*slab)[1:]
	return p
}

// mailbox is the receive side of one rank.  Any rank may post into it, so mu
// guards every field; only the owning rank waits on cond.
//
// The queue of (source, tag) is found by index: pages[source/64] is allocated
// on the first post or take from its 64 sources, and its slot for source
// chains that source's queues, one per tag (a source uses one to three).  So
// the table is linear in the ranks that talk to this one, never quadratic in
// the machine.  Idle messages sit on their stream's free list: post copies the
// sender's floats into one, take copies them out into the receiver's under the
// same lock and the message goes back where it came from, so the steady-state
// transport allocates nothing and no slice is ever shared between ranks.
// Everything carved lives as long as the Machine; reset returns undelivered
// messages to their free lists, so a second Run starts warm.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	pages  []*queuePage
	all    *msgQueue // every queue, through msgQueue.link
	closed bool
	wd     *watchdog

	released bool // the owner's steps at a board are done: see Board

	// waiting is the qkey the owner is parked on with no matching message
	// pending, else noWait: written under mu, read by the watchdog unlocked.
	waiting atomic.Uint64

	msgSlab   []message
	queueSlab []msgQueue
	floatSlab []float64
}

// queue returns the FIFO of (source, tag), creating it on first use.
func (mb *mailbox) queue(source, tag int) *msgQueue {
	pg := mb.pages[source>>pageBits]
	if pg == nil {
		pg = new(queuePage)
		mb.pages[source>>pageBits] = pg
	}
	slot := &pg[source&(pageSize-1)]
	for q := *slot; q != nil; q = q.sib {
		if q.tag == tag {
			return q
		}
	}
	q := carve(&mb.queueSlab, queueChunk)
	q.tag = tag
	q.sib, *slot = *slot, q
	q.link, mb.all = mb.all, q
	return q
}

// newFloats returns an n-float buffer, n > 0: carved when short, made whole
// otherwise.  A carved buffer's capacity ends at its length, so refilling it
// up to its capacity never reaches the next payload of the chunk.
func (mb *mailbox) newFloats(n int) []float64 {
	if n > carveFloats {
		return make([]float64, n)
	}
	if len(mb.floatSlab) < n {
		mb.floatSlab = make([]float64, floatChunk)
	}
	buf := mb.floatSlab[:n:n]
	mb.floatSlab = mb.floatSlab[n:]
	return buf
}

// unpark un-publishes k and takes the owner out of the watchdog's count if it
// is parked on exactly k, and reports whether it was.
func (mb *mailbox) unpark(k uint64) bool {
	if mb.waiting.Load() != k {
		return false
	}
	mb.waiting.Store(noWait)
	mb.wd.stuck.Add(-1)
	return true
}

// post enqueues a private copy of floats under one lock acquisition, filling an
// idle message of the stream in place (its buffer is replaced only when too
// short; the fields are arguments so no intermediate message is copied on the
// hot path).  If the owner is parked on exactly this stream, post unparks it
// under the lock that published the key, then wakes it; a post on any other
// stream wakes nobody and touches no shared state.
func (mb *mailbox) post(source, tag int, floats []float64, bytes int, arrive float64, seq int64) {
	n := len(floats)
	mb.mu.Lock()
	q := mb.queue(source, tag)
	mp := q.free
	if mp != nil {
		q.free, mp.next = mp.next, nil
	} else {
		mp = carve(&mb.msgSlab, msgChunk)
	}
	if cap(mp.floats) < n {
		mp.floats = mb.newFloats(n)
	}
	mp.floats = mp.floats[:n]
	copy(mp.floats, floats)
	mp.bytes, mp.arrive, mp.seq = bytes, arrive, seq
	if q.head == nil {
		q.head = mp
	} else {
		q.tail.next = mp
	}
	q.tail = mp
	wake := mb.unpark(qkey(source, tag))
	mb.mu.Unlock()
	if wake {
		mb.cond.Signal()
	}
}

// take dequeues the next message of (source, tag), parking until one is
// posted; ok is false if the mailbox was closed instead.  The payload is copied
// into buf (grown as needed from buf[:0]) under the same lock acquisition and
// returned as out; m carries the message's cost fields only.
func (mb *mailbox) take(source, tag int, buf []float64) (out []float64, m message, ok bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	q := mb.queue(source, tag)
	for q.head == nil {
		if mb.closed {
			return buf, message{}, false
		}
		// Publishing under mu orders the registration against every post: an
		// earlier one is in the queue already, a later one sees the key.
		k := qkey(source, tag)
		mb.waiting.Store(k)
		mb.wd.add()
		mb.cond.Wait()
		mb.unpark(k) // still published if close woke us, not a matching post
	}
	mp := q.head
	q.head = mp.next
	out = append(buf[:0], mp.floats...)
	m = message{bytes: mp.bytes, arrive: mp.arrive, seq: mp.seq}
	mp.next, q.free = q.free, mp
	return out, m, true
}

// close marks the mailbox closed, waking its owner if parked.
func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.mu.Unlock()
	mb.cond.Signal()
}

// awaitRelease parks the owner, counted stuck by a board, until the board
// releases it, and reports false if the mailbox was closed first.
func (mb *mailbox) awaitRelease() bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for !mb.released {
		if mb.closed {
			return false
		}
		mb.cond.Wait()
	}
	mb.released = false
	return true
}

// release wakes the owner parked at a board and un-counts it, as a matching
// post would.
func (mb *mailbox) release() {
	mb.mu.Lock()
	mb.released = true
	mb.waiting.Store(noWait)
	mb.wd.stuck.Add(-1)
	mb.mu.Unlock()
	mb.cond.Signal()
}

// reset reopens the mailbox for a new Run; what the previous Run left
// undelivered goes to its stream's free list, not to the new Run's receivers.
func (mb *mailbox) reset() {
	mb.mu.Lock()
	for q := mb.all; q != nil; q = q.link {
		for mp := q.head; mp != nil; mp = q.head {
			q.head = mp.next
			mp.next, q.free = q.free, mp
		}
	}
	mb.closed, mb.released = false, false
	mb.waiting.Store(noWait)
	mb.mu.Unlock()
}

// Machine is a simulated distributed-memory computer with a fixed number of
// ranks, each with its own CostModel (normally all the same).  Its Procs live
// as long as it does, and every Run starts them afresh, so a value bound to a
// Proc (a comm.Comm, say) stays valid from one Run to the next.
type Machine struct {
	n         int
	models    []CostModel
	boxes     []*mailbox
	procs     []*Proc
	logEvents bool
	fault     FaultHook
	routes    RouteModel
	wd        *watchdog
	cores     int // GOMAXPROCS when the Run started: see Fan
	sharedMu  sync.Mutex
	shared    map[any]*sharedValue // read-only values by key: see Shared
	boards    []*Board             // every collective board, appended under sharedMu
}

// New creates a machine with n identical ranks.  It panics if n < 1 or
// model is nil, since both indicate a programming error rather than a
// runtime condition.
func New(n int, model CostModel) *Machine {
	if model == nil {
		panic("sim: nil cost model")
	}
	models := make([]CostModel, n)
	for i := range models {
		models[i] = model
	}
	return NewHeterogeneous(models)
}

// NewHeterogeneous creates a machine whose ranks have individual cost
// models — e.g. one degraded node among healthy ones, the scenario an
// estimate-driven load balancer must absorb.  Message in-flight times use
// the sender's network model.
func NewHeterogeneous(models []CostModel) *Machine {
	if len(models) < 1 {
		panic("sim: machine must have at least 1 rank")
	}
	for i, mod := range models {
		if mod == nil {
			panic(fmt.Sprintf("sim: nil cost model for rank %d", i))
		}
	}
	m := &Machine{n: len(models), models: models, shared: make(map[any]*sharedValue)}
	m.wd = &watchdog{machine: m}
	m.boxes = make([]*mailbox, m.n)
	m.procs = make([]*Proc, m.n)
	np := (m.n + pageSize - 1) / pageSize
	pages := make([]*queuePage, m.n*np) // every mailbox's page table, in one allocation
	for i := range m.boxes {
		mb := &mailbox{pages: pages[i*np : (i+1)*np : (i+1)*np], wd: m.wd}
		mb.cond = sync.NewCond(&mb.mu)
		mb.waiting.Store(noWait)
		m.boxes[i] = mb
		m.procs[i] = &Proc{rank: i, machine: m}
	}
	return m
}

// Ranks returns the number of ranks in the machine.
func (m *Machine) Ranks() int { return m.n }

// SetFaultHook installs a fault injector consulted on compute, send and
// receive paths of every later Run.  Pass nil to remove it.
func (m *Machine) SetFaultHook(h FaultHook) { m.fault = h }

// sharedValue is one entry of a machine's store; mu is held while it builds.
type sharedValue struct {
	mu    sync.Mutex
	built bool
	v     any
}

// Shared returns the machine's read-only value for key, built once per key
// and machine by the first rank to ask and kept across Runs.  build runs
// outside the store's lock, so it may ask for another key; it must neither
// charge virtual time nor communicate.  A build that panics stores nothing.
func Shared[K comparable, V any](p *Proc, key K, build func() V) V {
	m := p.machine
	m.sharedMu.Lock()
	e := m.shared[key]
	if e == nil {
		e = new(sharedValue)
		m.shared[key] = e
	}
	m.sharedMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.built {
		e.v, e.built = build(), true
	}
	return e.v.(V)
}

// closeAll closes every mailbox, waking any parked rank.  Idempotent.
func (m *Machine) closeAll() {
	for _, b := range m.boxes {
		b.close()
	}
}

// Result captures the outcome of one Run: the final virtual clock of each
// rank, per-phase accounted time, and communication statistics.  It owns
// all of its memory: a later Run on the same Machine leaves it alone.
type Result struct {
	// Clocks holds each rank's virtual clock at program exit, in seconds.
	Clocks []float64
	// Accounts holds, per phase, each rank's virtual seconds accounted to
	// it; nil for a phase no rank accounted to.
	Accounts [NumPhases][]float64
	// MessagesSent and BytesSent hold each rank's point-to-point
	// traffic — the quantities the paper's algorithm analysis counts
	// (P*logP messages for the ring, O(N*P) volume, and so on).
	MessagesSent []int64
	BytesSent    []int64
	// WaitSeconds is the virtual time each rank spent blocked in a receive
	// waiting for messages that had not yet arrived: the sum of
	// communication latency and load-imbalance idling.
	WaitSeconds []float64
	// Events holds each rank's event log when the event log was on for
	// the Run (nil otherwise).
	Events [][]Event
}

// TotalMessages returns the machine-wide message count.
func (r *Result) TotalMessages() int64 {
	var n int64
	for _, v := range r.MessagesSent {
		n += v
	}
	return n
}

// TotalBytes returns the machine-wide bytes sent.
func (r *Result) TotalBytes() int64 {
	var n int64
	for _, v := range r.BytesSent {
		n += v
	}
	return n
}

// MaxClock returns the latest rank clock — the parallel execution time.
func (r *Result) MaxClock() float64 {
	max := 0.0
	for _, c := range r.Clocks {
		if c > max {
			max = c
		}
	}
	return max
}

// MaxAccount returns the maximum per-rank time accounted to ph, which is
// the phase's contribution to the critical path under a bulk-synchronous
// execution.
func (r *Result) MaxAccount(ph Phase) float64 {
	max := 0.0
	for _, c := range r.Accounts[ph] {
		if c > max {
			max = c
		}
	}
	return max
}

// Phases returns the phases some rank accounted to, in constant order.
func (r *Result) Phases() []Phase {
	var out []Phase
	for ph, acct := range r.Accounts {
		if acct != nil {
			out = append(out, Phase(ph))
		}
	}
	return out
}

// Run executes body once per rank, each in its own goroutine, and blocks
// until every rank returns.  The returned Result holds the final clocks.
//
// Run cannot hang: if any rank returns an error or panics, every mailbox is
// closed so peers blocked in a receive abort instead of waiting forever, and
// if all live ranks ever block simultaneously on messages that can never
// arrive, the built-in watchdog aborts the run with a DeadlockError naming
// each blocked (rank, src, tag).  Errors are reported by decreasing
// usefulness: injected crashes (CrashError), then deadlocks, then
// cancellation (CanceledError, RunContext only), then the first rank's own
// error or panic, then shutdown-victim errors.
func (m *Machine) Run(body func(p *Proc) error) (*Result, error) {
	//lint:allow ctxflow Run is the deliberately deadline-free entry point; callers needing cancellation use RunContext
	return m.RunContext(context.Background(), body)
}

// RunContext is Run with cooperative cancellation: when ctx is cancelled or
// its deadline passes, every mailbox is closed so ranks parked in a receive
// abort at their next communication point (computation between communications
// is never interrupted), and RunContext returns a *CanceledError wrapping
// ctx.Err().  Cancellation composes with the hang watchdog rather than
// racing it: a machine the watchdog has already proven deadlocked reports
// the DeadlockError even if ctx expires during the shutdown drain, because
// the deadlock — not the deadline — is the root cause.
func (m *Machine) RunContext(ctx context.Context, body func(p *Proc) error) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, &CanceledError{Cause: err}
	}
	procs := m.procs
	errs := make([]error, m.n)
	m.wd.reset()
	m.cores = runtime.GOMAXPROCS(0)
	defer m.wd.closers.Wait() // nobody still closing mailboxes may outlive this Run
	var canceled atomic.Bool
	if ctx.Done() != nil {
		stop := make(chan struct{})
		defer close(stop)
		m.wd.closers.Add(1)
		go func() {
			defer m.wd.closers.Done()
			select {
			case <-ctx.Done():
				// Order matters: the flag must be visible before the
				// shutdown drain lets wg.Wait return below.
				canceled.Store(true)
				m.wd.shutdown()
			case <-stop:
			}
		}()
	}
	var wg sync.WaitGroup
	for r := 0; r < m.n; r++ {
		procs[r].reset()
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					switch e := rec.(type) {
					case *CrashError:
						// An injected crash removes this rank but lets the
						// rest of the machine keep draining deterministically;
						// the watchdog handles any resulting quiescence.
						errs[r] = e
						m.wd.crash(r)
					case *abortedError:
						errs[r] = e
						m.wd.add()
					default:
						errs[r] = fmt.Errorf("sim: rank %d panicked: %v", r, rec)
						// Unblock any rank waiting on a message that
						// will now never come.
						m.wd.shutdown()
					}
					return
				}
				if errs[r] != nil {
					// A rank that *returns* an error must release its
					// peers exactly like one that panics, or they hang
					// in a receive forever.
					m.wd.shutdown()
					return
				}
				m.wd.add()
			}()
			errs[r] = body(procs[r])
		}(r)
	}
	wg.Wait()
	res := &Result{
		Clocks:       make([]float64, m.n),
		MessagesSent: make([]int64, m.n),
		BytesSent:    make([]int64, m.n),
		WaitSeconds:  make([]float64, m.n),
	}
	if m.logEvents {
		res.Events = make([][]Event, m.n)
	}
	var timed uint8
	for _, p := range procs {
		timed |= p.timed
	}
	acct := make([]float64, bits.OnesCount8(timed)*m.n) // every present phase's slice, in one allocation
	for ph := range res.Accounts {
		if timed&(1<<ph) != 0 {
			res.Accounts[ph], acct = acct[:m.n:m.n], acct[m.n:]
			for r, p := range procs {
				res.Accounts[ph][r] = p.accounts[ph]
			}
		}
	}
	for r, p := range procs {
		res.Clocks[r] = p.clock
		res.MessagesSent[r] = p.messagesSent
		res.BytesSent[r] = p.bytesSent
		res.WaitSeconds[r] = p.waitSeconds
		if m.logEvents {
			res.Events[r], p.events = p.events, nil
		}
	}
	// Injected crashes are the root cause of everything downstream of them.
	for _, err := range errs {
		if _, ok := err.(*CrashError); ok {
			return res, err
		}
	}
	if err := m.wd.deadlock(); err != nil {
		return res, err
	}
	if canceled.Load() {
		// The aborted ranks below are victims of the cancellation drain,
		// not independent failures.
		return res, &CanceledError{Cause: ctx.Err()}
	}
	// Prefer a rank's own failure over the victims it shut down.
	var victim error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if _, ok := err.(*abortedError); ok {
			if victim == nil {
				victim = err
			}
			continue
		}
		return res, err
	}
	if victim != nil {
		return res, victim
	}
	return res, nil
}

// Proc is one simulated processor.  All methods must be called only from the
// goroutine running that rank's body.  It talks to other ranks through
// SendFloatsCopy and RecvFloatsInto alone.
type Proc struct {
	rank         int
	machine      *Machine
	clock        float64
	crashAt      float64 // injected crash time (+Inf when healthy)
	accounts     [NumPhases]float64
	timed        uint8 // bit ph set once the Run accounted to ph, even zero seconds
	messagesSent int64
	bytesSent    int64
	waitSeconds  float64
	events       []Event
	fan          fanState // see Fan
}

// reset starts the rank afresh for a Run: zero clock and counters, no
// accounts, and the crash time of the installed fault hook.  The last Run's
// events went to its Result.
func (p *Proc) reset() {
	p.clock, p.messagesSent, p.bytesSent, p.waitSeconds = 0, 0, 0, 0
	p.accounts, p.timed = [NumPhases]float64{}, 0
	p.crashAt = math.Inf(1)
	if f := p.machine.fault; f != nil {
		p.crashAt = f.CrashTime(p.rank)
	}
}

// WaitSeconds returns the virtual time this rank has spent blocked on
// not-yet-arrived messages.
func (p *Proc) WaitSeconds() float64 { return p.waitSeconds }

// MessagesSent returns the number of point-to-point messages this rank has
// sent so far (self-sends included).
func (p *Proc) MessagesSent() int64 { return p.messagesSent }

// BytesSent returns the total payload bytes this rank has sent so far.
func (p *Proc) BytesSent() int64 { return p.bytesSent }

// Rank returns this processor's rank in [0, Ranks).
func (p *Proc) Rank() int { return p.rank }

// Ranks returns the machine size.
func (p *Proc) Ranks() int { return p.machine.n }

// Model returns this rank's cost model.
func (p *Proc) Model() CostModel { return p.machine.models[p.rank] }

// Clock returns the current virtual time of this rank in seconds.
func (p *Proc) Clock() float64 { return p.clock }

// Compute advances the clock by the cost of flops floating point operations.
func (p *Proc) Compute(flops float64) {
	p.advance(p.machine.models[p.rank].FlopSeconds(flops))
}

// ComputeMem advances the clock by the cost of flops operations plus
// memBytes of memory traffic.  Use this for kernels whose cost is dominated
// by cache behaviour rather than arithmetic.
func (p *Proc) ComputeMem(flops, memBytes float64) {
	p.advance(p.machine.models[p.rank].FlopSeconds(flops) + p.machine.models[p.rank].MemSeconds(memBytes))
}

// advance is occupy raising the crash as a panic, which Run recovers.
func (p *Proc) advance(dt float64) {
	if err := p.occupy(dt); err != nil {
		panic(err)
	}
}

// occupy advances the clock by dt seconds of CPU occupancy, which a fault hook
// may stretch (slowdown onset); it returns the *CrashError if the rank dies.
func (p *Proc) occupy(dt float64) error {
	if p.machine.fault == nil {
		p.clock += dt
		return nil
	}
	p.clock += p.machine.fault.ComputeSeconds(p.rank, p.clock, dt)
	if p.clock >= p.crashAt {
		p.clock = p.crashAt
		return &CrashError{Rank: p.rank, At: p.crashAt}
	}
	return nil
}

// SendFloatsCopy transmits a copy of data to rank dst with the given tag;
// bytes is the wire size used for timing.  The send is eager and asynchronous:
// it costs the sender only the send overhead, and the sender keeps data and may
// reuse it immediately.  The copy lives in a buffer of the destination's
// mailbox that RecvFloatsInto recycles, so at steady state the exchange is both
// safe against aliasing and allocation-free.  Tags lie in [0, 2^31); a tag or
// rank outside its range panics.
func (p *Proc) SendFloatsCopy(dst, tag int, data []float64, bytes int) {
	if dst < 0 || dst >= p.machine.n {
		panic(fmt.Sprintf("sim: rank %d send to invalid rank %d", p.rank, dst))
	}
	if uint(tag) >= maxTag {
		panic(fmt.Sprintf("sim: rank %d send with invalid tag %d", p.rank, tag))
	}
	arrive, seq, err := p.chargeSend(dst, tag, bytes)
	if err != nil {
		panic(err)
	}
	p.machine.boxes[dst].post(p.rank, tag, data, bytes, arrive, seq)
}

// chargeSend charges p for a send, for SendFloatsCopy and the boards alike,
// and returns the arrival time and sequence number or the failure to raise.
func (p *Proc) chargeSend(dst, tag, bytes int) (arrive float64, seq int64, err error) {
	p.messagesSent++
	p.bytesSent += int64(bytes)
	seq = p.messagesSent
	fault := p.machine.fault
	if err := p.occupy(p.machine.models[p.rank].SendOverheadSeconds(bytes)); err != nil {
		return 0, seq, err
	}
	wire := 0.0
	if dst != p.rank {
		// Self-sends are legal and cost only the overheads, not the wire.
		// The route model (when installed) sees the post-overhead clock:
		// the instant the message actually reaches the network.
		if rm := p.machine.routes; rm != nil {
			wire = rm.RouteSeconds(p.rank, dst, bytes, p.clock)
		} else {
			wire = p.machine.models[p.rank].NetworkSeconds(bytes)
		}
		if fault != nil {
			extra, err := fault.SendDelay(p.rank, dst, tag, seq, p.clock)
			if err != nil {
				return 0, seq, fmt.Errorf("sim: rank %d send to rank %d (tag %d): %w", p.rank, dst, tag, err)
			}
			wire += extra
		}
	}
	p.logSend(dst, bytes, p.clock, seq)
	return p.clock + wire, seq, nil
}

// SendFloats is SendFloatsCopy under the name the frozen benchmark/probes.go
// (sim.pingpong_ns_per_msg) calls; nothing else uses it.
func (p *Proc) SendFloats(dst, tag int, data []float64, bytes int) {
	p.SendFloatsCopy(dst, tag, data, bytes)
}

// RecvFloatsInto blocks until a message from rank src with the given tag
// arrives, copies its payload into buf (grown as needed from buf[:0]) and
// returns the filled slice, which the caller owns.  The local clock advances
// to at least the message's arrival time plus the receive overhead.  src and
// tag are checked as in SendFloatsCopy.
func (p *Proc) RecvFloatsInto(src, tag int, buf []float64) []float64 {
	if src < 0 || src >= p.machine.n {
		panic(fmt.Sprintf("sim: rank %d recv from invalid rank %d", p.rank, src))
	}
	if uint(tag) >= maxTag {
		panic(fmt.Sprintf("sim: rank %d recv with invalid tag %d", p.rank, tag))
	}
	buf, m, ok := p.machine.boxes[p.rank].take(src, tag, buf)
	if !ok {
		panic(&abortedError{rank: p.rank})
	}
	if err := p.chargeRecv(src, m.bytes, m.arrive, m.seq); err != nil {
		panic(err)
	}
	return buf
}

// chargeRecv charges p for a receive, for RecvFloatsInto and the boards
// alike, and returns the crash to raise, one while p still waits included.
func (p *Proc) chargeRecv(src, bytes int, arrive float64, seq int64) error {
	waitedFrom := p.clock
	if arrive > p.clock {
		if arrive >= p.crashAt {
			// The rank dies while still waiting for this message.
			if p.crashAt > p.clock {
				p.waitSeconds += p.crashAt - p.clock
			}
			p.clock = p.crashAt
			return &CrashError{Rank: p.rank, At: p.crashAt}
		}
		p.waitSeconds += arrive - p.clock
		p.clock = arrive
	}
	if err := p.occupy(p.machine.models[p.rank].RecvOverheadSeconds(bytes)); err != nil {
		return err
	}
	p.logRecv(src, bytes, waitedFrom, p.clock, seq)
	return nil
}

// Account runs fn and accounts the virtual time it consumed to ph.
// Accounting itself charges no virtual time.
func (p *Proc) Account(ph Phase, fn func()) {
	start := p.clock
	fn()
	p.accounts[ph] += p.clock - start
	p.timed |= 1 << ph
	p.logSpan(ph, start, p.clock)
}

// Timed is Account(Misc, fn); the name is ignored.  It is kept only for
// callers outside this module and goes with the other shims.
func (p *Proc) Timed(_ string, fn func()) { p.Account(Misc, fn) }

// Accounted returns the virtual seconds accounted so far to ph.
func (p *Proc) Accounted(ph Phase) float64 { return p.accounts[ph] }
