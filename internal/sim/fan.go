package sim

import (
	"sync"
	"sync/atomic"
)

// Intra-rank fan-out.  Every rank runs on one goroutine, so a machine with
// fewer ranks than the host has cores leaves cores idle; a one-rank run uses
// one.  Fan lets a rank split a loop of independent iterations — latitude
// rows, filter lines, physics columns — over the cores its machine leaves
// it: k = min(n, max(1, GOMAXPROCS / ranks)) shares.  A machine with at
// least as many ranks as cores gets k = 1 and runs every loop inline.
//
// The shares run on process-wide helper goroutines, GOMAXPROCS-1 of them,
// started on the first Fan that splits.  A share is handed to a helper only
// if one is idle, by a non-blocking send on an unbuffered channel; otherwise
// the rank runs it itself.  So concurrent runs never put more goroutines to
// work than the host has cores.
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
	// width of the Fan call.  The shares of one call run concurrently, so
	// Run writes disjoint elements and keeps any scratch per worker.
	Run(w, lo, hi int)
}

// Scratch is implemented by a Loop that keeps scratch per worker: Fan calls
// Grow(k) on the rank's goroutine before every call k > 1 wide, so each
// worker below k finds its own.
type Scratch interface {
	Grow(k int)
}

// fanState is a rank's part of its Fan calls: shares[w] is worker w's share
// of the current call, and wg counts the shares out with helpers.
type fanState struct {
	shares []share
	wg     sync.WaitGroup
}

// share is one worker's part of a Fan call.  The rank writes loop, lo, hi
// and helped before the handoff and reads failed and rec after the join.
type share struct {
	wg        *sync.WaitGroup
	loop      Loop
	w, lo, hi int
	helped    bool // handed to a helper, not run by the rank
	failed    bool // Run panicked with rec
	rec       any
}

// run runs the share's iterations and keeps a panic for the rank to raise.
func (s *share) run() {
	defer func() {
		if r := recover(); r != nil {
			s.failed, s.rec = true, r
		}
	}()
	s.loop.Run(s.w, s.lo, s.hi)
}

// help is run on a helper goroutine.
func (s *share) help() {
	defer s.wg.Done()
	s.run()
}

var (
	// helperWork is unbuffered: a send succeeds only into an idle helper.
	helperWork = make(chan *share)
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
			for s := range helperWork {
				s.help()
			}
		}()
	}
}

// Fan runs loop over [0, n), split into k = min(n, max(1, GOMAXPROCS /
// ranks)) contiguous shares, and returns when every share has.  GOMAXPROCS
// is read when the Run starts, so k is fixed for the Run.  Share w is
// [w*n/k, (w+1)*n/k).  A share that panics re-raises its panic on the
// rank's goroutine after the join; if several do, the one with the lowest
// iterations does, as the serial loop would.
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
	for len(f.shares) < k {
		f.shares = append(f.shares, share{wg: &f.wg, w: len(f.shares)})
	}
	startHelpers(cores - 1)
	shares := f.shares[:k]
	for w := range shares {
		s := &shares[w]
		s.loop, s.lo, s.hi, s.helped, s.failed, s.rec = loop, w*n/k, (w+1)*n/k, w > 0, false, nil
		if !s.helped {
			continue
		}
		f.wg.Add(1)
		select {
		case helperWork <- s:
		default:
			s.helped = false
			f.wg.Done()
		}
	}
	for w := range shares {
		if s := &shares[w]; !s.helped {
			s.run()
		}
	}
	f.wg.Wait()
	for w := range shares {
		if s := &shares[w]; s.failed {
			panic(s.rec)
		}
	}
}
