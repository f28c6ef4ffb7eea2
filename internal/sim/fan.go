package sim

import (
	"sync"
	"sync/atomic"
)

// Intra-rank fan-out.  Every rank runs on one goroutine, so a machine with
// fewer ranks than the host has cores leaves cores idle; a one-rank run uses
// one.  Fan lets a rank split a loop of independent iterations — latitude
// rows, filter lines, physics columns — over the cores its machine leaves
// it: k = min(n, max(1, GOMAXPROCS / ranks)) workers.  A machine with at
// least as many ranks as cores gets k = 1 and runs every loop inline.
//
// The loop is cut into contiguous chunks that the rank and its helpers claim
// from one counter.  The helpers are process-wide goroutines, GOMAXPROCS-1
// of them, started on the first Fan that splits.  Worker w > 0 is handed to
// a helper only if one is idle, by a non-blocking send on an unbuffered
// channel; a busy or late helper just claims fewer chunks, and the rank the
// rest.  So concurrent runs never put more goroutines to work than cores.
//
// Fan touches no virtual time.  A loop must not call Proc methods; the rank
// charges the loop's cost after Fan returns, in the order the serial loop
// charged it, so clocks, accounts and events stay bit for bit the same.

// Loop is a loop of independent iterations that a rank splits with Fan.  A
// kernel implements it on a named pointer conversion of itself (type
// rowLoop Kernel; p.Fan((*rowLoop)(k), n)), so handing a loop to Fan
// allocates nothing.
type Loop interface {
	// Run runs iterations [lo, hi) as worker w, where w < k and k is the
	// width of the Fan call.  The chunks of one call run concurrently, so
	// Run writes disjoint elements and keeps any scratch per worker.
	Run(w, lo, hi int)
}

// Scratch is implemented by a Loop that keeps scratch per worker: Fan calls
// Grow(k) on the rank's goroutine before every call k > 1 wide, so each
// worker below k finds its own.
type Scratch interface {
	Grow(k int)
}

// chunksPerWorker: on a 2-vCPU host, 1 and 4 chunks per worker left the rank
// waiting longer at the join than 8; 16 waited less but ran the one-rank
// benchmark 2 % slower.
const chunksPerWorker = 8

// fanState is a rank's part of its Fan calls: the current call's loop, its
// chunk count, the next chunk to claim and the lowest chunk that panicked
// (rec non-nil) so far; wg counts the workers out.
type fanState struct {
	loop              Loop
	n, chunks, failed int
	next              atomic.Int64
	mu                sync.Mutex // guards failed and rec
	rec               any
	workers           []worker
	wg                sync.WaitGroup
}

// worker is worker w of its rank's Fan calls.
type worker struct {
	f *fanState
	w int
}

// work claims and runs chunks until none is left or one panics.  Chunks are
// claimed in ascending order, so every chunk below a panicking one has run.
func (wk *worker) work() {
	c, f := 0, wk.f
	defer f.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			f.mu.Lock()
			if f.rec == nil || c < f.failed {
				f.failed, f.rec = c, r
			}
			f.mu.Unlock()
		}
	}()
	for c = int(f.next.Add(1) - 1); c < f.chunks; c = int(f.next.Add(1) - 1) {
		f.loop.Run(wk.w, c*f.n/f.chunks, (c+1)*f.n/f.chunks)
	}
}

var (
	// helperWork is unbuffered: a send succeeds only into an idle helper.
	helperWork = make(chan *worker)
	helpersMu  sync.Mutex
	helpers    atomic.Int32 // helper goroutines started
)

// startHelpers brings the helper count up to want.  Helpers live as long as
// the process: each is a parked goroutine while idle.
func startHelpers(want int) {
	if int(helpers.Load()) >= want {
		return
	}
	helpersMu.Lock()
	defer helpersMu.Unlock()
	for int(helpers.Load()) < want {
		helpers.Add(1)
		go func() {
			// helperWork is never closed: the helpers serve every machine
			// of the process.
			for wk := range helperWork {
				wk.work()
			}
		}()
	}
}

// Fan runs loop over [0, n) on k = min(n, max(1, GOMAXPROCS / ranks))
// workers and returns when every chunk has run.  GOMAXPROCS is read when
// the Run starts, so k is fixed for the Run.  Chunk c is [c*n/C, (c+1)*n/C)
// of C = min(n, chunksPerWorker*k).  A chunk that panics re-raises its
// panic on the rank's goroutine after the join; if several do, the lowest
// chunk's does, as the serial loop would.
func (p *Proc) Fan(loop Loop, n int) {
	cores := p.machine.cores
	k := min(n, max(1, cores/p.machine.n))
	if k <= 1 {
		loop.Run(0, 0, n)
		return
	}
	if g, ok := loop.(Scratch); ok {
		g.Grow(k)
	}
	f := &p.fan
	for len(f.workers) < k {
		f.workers = append(f.workers, worker{f: f, w: len(f.workers)})
	}
	startHelpers(cores - 1)
	f.loop, f.n, f.chunks = loop, n, min(n, chunksPerWorker*k)
	f.next.Store(0)
	f.wg.Add(k) // one Done per worker's work, or per handoff no helper took
	for w := 1; w < k; w++ {
		select {
		case helperWork <- &f.workers[w]:
		default:
			f.wg.Done()
		}
	}
	f.workers[0].work()
	f.wg.Wait()
	if rec := f.rec; rec != nil {
		f.rec = nil
		panic(rec)
	}
}
