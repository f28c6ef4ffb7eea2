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
	"sort"
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
// a free list while idle.  floats is the mailbox's own buffer and never leaves
// the message, so a message stays in its length class for life.
type message struct {
	next   *message
	floats []float64
	bytes  int     // wire size used for timing, independent of len(floats)
	arrive float64 // virtual arrival time at the receiver
	seq    int64   // per-sender sequence number, for event logging
}

// qkey packs a (source, tag) pair into one word: the queue map takes the
// runtime's fast integer-key path and a parked rank publishes its pair in one
// atomic store.  Ranks fit in 32 bits and tags are small ints: it is injective.
func qkey(source, tag int) uint64 {
	return uint64(uint32(source))<<32 | uint64(uint32(tag))
}

// noWait is the published key of a rank that is not parked; its source half
// is no valid rank, so no post matches it.
const noWait = ^uint64(0)

// msgQueue is the FIFO of in-flight messages of one (source, tag) key, linked
// through message.next and empty when head is nil: a list has nothing to grow
// however far a sender runs ahead of its receiver.
type msgQueue struct {
	head, tail *message
	link       *msgQueue // next in the mailbox's list of all its queues
}

// Slab sizes.  A cold mailbox needs tens of messages, queues and tiny payloads:
// chunks this small make that a handful of allocations, under 2 KiB unused.
const (
	msgChunk    = 16  // messages per chunk
	queueChunk  = 16  // queues per chunk
	floatChunk  = 128 // floats per payload chunk
	carveFloats = 32  // longest payload carved from a chunk; longer ones are made whole
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
// Idle messages sit on per-length free lists: free[n] is a sentinel (so push
// and pop never write the map) heading the messages whose buffer holds exactly
// n floats, free[0] the bufferless tokens.  post copies the sender's floats
// into the buffer, take copies them out into the receiver's under the same
// lock and the message goes back on free[n], so the steady-state transport
// allocates nothing and no slice is ever shared between ranks.  Everything
// carved lives as long as the Machine; reset returns undelivered messages to
// the free lists, so a second Run starts warm.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[uint64]*msgQueue
	all    *msgQueue        // every queue, through msgQueue.link
	free   map[int]*message // free-list sentinels by buffer length
	closed bool
	wd     *watchdog

	// waiting is the qkey the owner is parked on with no matching message
	// pending, else noWait: written under mu, read by the watchdog unlocked.
	waiting atomic.Uint64

	msgSlab   []message
	queueSlab []msgQueue
	floatSlab []float64

	// Single-entry lookup caches: steady-state traffic revisits the same
	// queue run after run, so most posts and takes skip the map.
	lastPostKey, lastTakeKey uint64
	lastPostQ, lastTakeQ     *msgQueue
}

func newMailbox(wd *watchdog) *mailbox {
	mb := &mailbox{
		queues: make(map[uint64]*msgQueue),
		free:   make(map[int]*message),
		wd:     wd,
	}
	mb.cond = sync.NewCond(&mb.mu)
	mb.waiting.Store(noWait)
	return mb
}

// freeList returns the sentinel of the n-float class, created on first use.
func (mb *mailbox) freeList(n int) *message {
	h := mb.free[n]
	if h == nil {
		h = carve(&mb.msgSlab, msgChunk)
		mb.free[n] = h
	}
	return h
}

// queue returns the FIFO for k, creating it on first use.
func (mb *mailbox) queue(k uint64) *msgQueue {
	q := mb.queues[k]
	if q == nil {
		q = carve(&mb.queueSlab, queueChunk)
		q.link, mb.all = mb.all, q
		mb.queues[k] = q
	}
	return q
}

// newFloats returns an n-float buffer: carved when short, made whole otherwise.
func (mb *mailbox) newFloats(n int) []float64 {
	if n == 0 || n > carveFloats {
		return make([]float64, n)
	}
	if len(mb.floatSlab) < n {
		mb.floatSlab = make([]float64, floatChunk)
	}
	buf := mb.floatSlab[:n]
	mb.floatSlab = mb.floatSlab[n:]
	return buf
}

// recycle puts a dequeued message on the free list of its length class.
func (mb *mailbox) recycle(mp *message) {
	h := mb.freeList(len(mp.floats))
	mp.next, h.next = h.next, mp
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

// post enqueues a private copy of floats under one lock acquisition, filling a
// free-list message of that length in place (the fields are arguments so no
// intermediate message is copied on the hot path).  If the owner is parked on
// exactly this key, post unparks it under the lock that published the key,
// then wakes it; a post on any other key wakes nobody and touches no shared
// state.
func (mb *mailbox) post(source, tag int, floats []float64, bytes int, arrive float64, seq int64) {
	n := len(floats)
	mb.mu.Lock()
	h := mb.freeList(n)
	mp := h.next
	if mp != nil {
		h.next, mp.next = mp.next, nil
	} else {
		mp = carve(&mb.msgSlab, msgChunk)
		mp.floats = mb.newFloats(n)
	}
	copy(mp.floats, floats)
	mp.bytes, mp.arrive, mp.seq = bytes, arrive, seq
	k := qkey(source, tag)
	q := mb.lastPostQ
	if q == nil || mb.lastPostKey != k {
		q = mb.queue(k)
		mb.lastPostKey, mb.lastPostQ = k, q
	}
	if q.head == nil {
		q.head = mp
	} else {
		q.tail.next = mp
	}
	q.tail = mp
	wake := mb.unpark(k)
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
	k := qkey(source, tag)
	mb.mu.Lock()
	defer mb.mu.Unlock()
	q := mb.lastTakeQ
	if q == nil || mb.lastTakeKey != k {
		q = mb.queue(k)
		mb.lastTakeKey, mb.lastTakeQ = k, q
	}
	for q.head == nil {
		if mb.closed {
			return buf, message{}, false
		}
		// Publishing under mu orders the registration against every post: an
		// earlier one is in the queue already, a later one sees the key.
		mb.waiting.Store(k)
		mb.wd.add()
		mb.cond.Wait()
		mb.unpark(k) // still published if close woke us, not a matching post
	}
	mp := q.head
	q.head = mp.next
	out = append(buf[:0], mp.floats...)
	m = message{bytes: mp.bytes, arrive: mp.arrive, seq: mp.seq}
	mb.recycle(mp)
	return out, m, true
}

// close marks the mailbox closed, waking its owner if parked.
func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.mu.Unlock()
	mb.cond.Signal()
}

// reset reopens the mailbox for a new Run; what the previous Run left
// undelivered goes to the free lists, not to the new Run's receivers.
func (mb *mailbox) reset() {
	mb.mu.Lock()
	for q := mb.all; q != nil; q = q.link {
		for mp := q.head; mp != nil; mp = q.head {
			q.head = mp.next
			mb.recycle(mp)
		}
	}
	mb.closed = false
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
	m := &Machine{n: len(models), models: models}
	m.wd = &watchdog{machine: m}
	m.boxes = make([]*mailbox, m.n)
	m.procs = make([]*Proc, m.n)
	for i := range m.boxes {
		m.boxes[i] = newMailbox(m.wd)
		m.procs[i] = &Proc{rank: i, machine: m, accounts: make(map[string]float64)}
	}
	return m
}

// Ranks returns the number of ranks in the machine.
func (m *Machine) Ranks() int { return m.n }

// SetFaultHook installs a fault injector consulted on compute, send and
// receive paths of every later Run.  Pass nil to remove it.
func (m *Machine) SetFaultHook(h FaultHook) { m.fault = h }

// closeAll closes every mailbox, waking any parked rank.  Idempotent.
func (m *Machine) closeAll() {
	for _, b := range m.boxes {
		b.close()
	}
}

// Result captures the outcome of one Run: the final virtual clock of each
// rank, per-category accounted time, and communication statistics.  It owns
// all of its memory: a later Run on the same Machine leaves it alone.
type Result struct {
	// Clocks holds each rank's virtual clock at program exit, in seconds.
	Clocks []float64
	// Accounts maps a timing category (e.g. "filter", "physics") to the
	// per-rank virtual seconds accounted to that category.
	Accounts map[string][]float64
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

// MaxAccount returns the maximum per-rank time accounted to category, which
// is the category's contribution to the critical path under a bulk-
// synchronous execution.
func (r *Result) MaxAccount(category string) float64 {
	max := 0.0
	for _, c := range r.Accounts[category] {
		if c > max {
			max = c
		}
	}
	return max
}

// SumAccount returns the total time across ranks accounted to category.
func (r *Result) SumAccount(category string) float64 {
	sum := 0.0
	for _, c := range r.Accounts[category] {
		sum += c
	}
	return sum
}

// Categories returns the sorted list of accounted categories.
func (r *Result) Categories() []string {
	cats := make([]string, 0, len(r.Accounts))
	for c := range r.Accounts {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	return cats
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
		Accounts:     make(map[string][]float64),
		MessagesSent: make([]int64, m.n),
		BytesSent:    make([]int64, m.n),
		WaitSeconds:  make([]float64, m.n),
	}
	if m.logEvents {
		res.Events = make([][]Event, m.n)
	}
	for r, p := range procs {
		res.Clocks[r] = p.clock
		res.MessagesSent[r] = p.messagesSent
		res.BytesSent[r] = p.bytesSent
		res.WaitSeconds[r] = p.waitSeconds
		if m.logEvents {
			res.Events[r], p.events = p.events, nil
		}
		//lint:allow nondeterm each iteration writes Accounts[cat][r] for its own ranged key only; order is unobservable
		for cat, t := range p.accounts {
			if _, ok := res.Accounts[cat]; !ok {
				res.Accounts[cat] = make([]float64, m.n)
			}
			res.Accounts[cat][r] = t
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
	accounts     map[string]float64
	messagesSent int64
	bytesSent    int64
	waitSeconds  float64
	events       []Event
}

// reset starts the rank afresh for a Run: zero clock and counters, no
// accounts, and the crash time of the installed fault hook.  The last Run's
// events went to its Result.
func (p *Proc) reset() {
	p.clock, p.messagesSent, p.bytesSent, p.waitSeconds = 0, 0, 0, 0
	clear(p.accounts)
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
	dt := p.machine.models[p.rank].FlopSeconds(flops)
	if p.machine.fault != nil {
		p.faultyAdvance(dt)
		return
	}
	p.clock += dt
}

// ComputeMem advances the clock by the cost of flops operations plus
// memBytes of memory traffic.  Use this for kernels whose cost is dominated
// by cache behaviour rather than arithmetic.
func (p *Proc) ComputeMem(flops, memBytes float64) {
	dt := p.machine.models[p.rank].FlopSeconds(flops) + p.machine.models[p.rank].MemSeconds(memBytes)
	if p.machine.fault != nil {
		p.faultyAdvance(dt)
		return
	}
	p.clock += dt
}

// Elapse advances the clock by a raw number of virtual seconds.
func (p *Proc) Elapse(seconds float64) {
	if seconds < 0 {
		panic(fmt.Sprintf("sim: rank %d elapsed negative time %g", p.rank, seconds))
	}
	if p.machine.fault != nil {
		p.faultyAdvance(seconds)
		return
	}
	p.clock += seconds
}

// faultyAdvance advances the clock by dt seconds of CPU occupancy under an
// installed fault hook: the hook may stretch the interval (slowdown onset)
// and the rank dies the instant its clock reaches the injected crash time.
func (p *Proc) faultyAdvance(dt float64) {
	p.clock += p.machine.fault.ComputeSeconds(p.rank, p.clock, dt)
	if p.clock >= p.crashAt {
		p.crash()
	}
}

// crash stops the rank at its injected crash time.  The panic is recovered
// by Run and surfaced as a *CrashError.
func (p *Proc) crash() {
	p.clock = p.crashAt
	panic(&CrashError{Rank: p.rank, At: p.crashAt})
}

// SendFloatsCopy transmits a copy of data to rank dst with the given tag;
// bytes is the wire size used for timing.  The send is eager and asynchronous:
// it costs the sender only the send overhead, and the sender keeps data and may
// reuse it immediately.  The copy lives in a buffer of the destination's
// mailbox that RecvFloatsInto recycles, so at steady state the exchange is both
// safe against aliasing and allocation-free.
func (p *Proc) SendFloatsCopy(dst, tag int, data []float64, bytes int) {
	if dst < 0 || dst >= p.machine.n {
		panic(fmt.Sprintf("sim: rank %d send to invalid rank %d", p.rank, dst))
	}
	p.messagesSent++
	p.bytesSent += int64(bytes)
	seq := p.messagesSent
	fault := p.machine.fault
	overhead := p.machine.models[p.rank].SendOverheadSeconds(bytes)
	if fault != nil {
		p.faultyAdvance(overhead)
	} else {
		p.clock += overhead
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
				panic(fmt.Errorf("sim: rank %d send to rank %d (tag %d): %w", p.rank, dst, tag, err))
			}
			wire += extra
		}
	}
	p.logSend(dst, bytes, p.clock, seq)
	p.machine.boxes[dst].post(p.rank, tag, data, bytes, p.clock+wire, seq)
}

// SendFloats is SendFloatsCopy under the name the frozen benchmark/probes.go
// (sim.pingpong_ns_per_msg) calls; nothing else uses it.
func (p *Proc) SendFloats(dst, tag int, data []float64, bytes int) {
	p.SendFloatsCopy(dst, tag, data, bytes)
}

// RecvFloatsInto blocks until a message from rank src with the given tag
// arrives, copies its payload into buf (grown as needed from buf[:0]) and
// returns the filled slice, which the caller owns.  The local clock advances
// to at least the message's arrival time plus the receive overhead.
func (p *Proc) RecvFloatsInto(src, tag int, buf []float64) []float64 {
	if src < 0 || src >= p.machine.n {
		panic(fmt.Sprintf("sim: rank %d recv from invalid rank %d", p.rank, src))
	}
	buf, m, ok := p.machine.boxes[p.rank].take(src, tag, buf)
	if !ok {
		panic(&abortedError{rank: p.rank})
	}
	waitedFrom := p.clock
	if m.arrive > p.clock {
		if m.arrive >= p.crashAt {
			// The rank dies while still waiting for this message.
			if p.crashAt > p.clock {
				p.waitSeconds += p.crashAt - p.clock
			}
			p.crash()
		}
		p.waitSeconds += m.arrive - p.clock
		p.clock = m.arrive
	}
	overhead := p.machine.models[p.rank].RecvOverheadSeconds(m.bytes)
	if p.machine.fault != nil {
		p.faultyAdvance(overhead)
	} else {
		p.clock += overhead
	}
	p.logRecv(src, m.bytes, waitedFrom, p.clock, m.seq)
	return buf
}

// Account attributes seconds of already-elapsed virtual time to a named
// category for later reporting.  Accounting is bookkeeping only; it does not
// advance the clock.
func (p *Proc) Account(category string, seconds float64) {
	p.accounts[category] += seconds
}

// Timed runs fn and accounts the virtual time it consumed to category.
func (p *Proc) Timed(category string, fn func()) {
	start := p.clock
	fn()
	p.accounts[category] += p.clock - start
	p.logSpan(category, start, p.clock)
}

// Accounted returns the virtual seconds accounted so far to category.
func (p *Proc) Accounted(category string) float64 {
	return p.accounts[category]
}
