package sim

// Collective boards: a complete collective — one no member can finish before
// every member has arrived — runs as one replay instead of as messages.  Each
// arrival plays the arrived members' steps, charged by chargeSend and
// chargeRecv, as far as they allow; a member left waiting is counted stuck
// under the (source, tag) it would block on and waits in its own mailbox.
// DESIGN.md §5 has the invariants.

import (
	"fmt"
	"sync"
)

// StepKind says what a Step does.
type StepKind uint8

const (
	StepSend StepKind = iota // send the member's send[Buf] to Peer
	StepRecv                 // receive Peer's next message into recv[Buf]
	StepCopy                 // copy send[Buf] into recv[Buf]: no message
)

// Step is one action of a member's program at a Board.  Peer is a member
// index and Tag the machine-level tag.  A negative Buf is an empty payload,
// received into nothing.  A message's wire size is 8 bytes per float64.
type Step struct {
	Kind      StepKind
	Peer, Buf int32
	Tag       int32
}

// Board replays one communicator's calls of one complete collective.
type Board struct {
	mu      sync.Mutex
	members []boardMember
	arrived int     // members that arrived in the current call
	run     []int32 // members the current arrival has yet to advance
}

// boardMember is one member's slot, guarded by the board's lock.
type boardMember struct {
	p          *Proc
	mb         *mailbox
	steps      []Step
	send, recv [][]float64
	pc         int        // next step
	in         bool       // arrived this call, steps neither done nor abandoned
	parked     bool       // in awaitRelease, counted stuck on the board's behalf
	fail       error      // the crash or delivery failure it raises when released
	stage      []float64  // payloads of its sends this call
	inbox      []boardMsg // messages sent to it this call, in send order
	from       []int32    // each inbox message's sender, -1 once received
	first      int        // from[:first] are all -1
}

// boardMsg is a message in flight; its payload is its sender's stage[off:off+n].
type boardMsg struct {
	off, n int
	arrive float64
	seq    int64
}

// BoardFor returns the board, built on first use through Shared, of the
// complete collective named by key among the world ranks world.  The key must
// tell its traffic apart as (source, tag) matching would.
func BoardFor[K comparable](p *Proc, key K, world []int) *Board {
	return Shared(p, key, func() *Board {
		m := p.machine
		b := &Board{members: make([]boardMember, len(world))}
		for i, r := range world {
			b.members[i].p, b.members[i].mb = m.procs[r], m.boxes[r]
		}
		m.sharedMu.Lock()
		m.boards = append(m.boards, b)
		m.sharedMu.Unlock()
		return b
	})
}

// Run plays member me's steps on its goroutine, sending from send and
// receiving into recv, and returns when they are done.  Every member's program
// must match its peers' message for message.  Run raises a crash or delivery
// failure as the messages would, and aborts with the machine while it waits.
func (b *Board) Run(me int, steps []Step, send, recv [][]float64) {
	mm := &b.members[me]
	b.mu.Lock()
	if mm.in || mm.parked {
		b.mu.Unlock()
		panic(fmt.Sprintf("sim: rank %d arrived twice at a board", mm.p.rank))
	}
	mm.steps, mm.send, mm.recv, mm.pc, mm.in, mm.fail = steps, send, recv, 0, true, nil
	b.arrived++
	b.run = append(b.run, int32(me))
	for len(b.run) > 0 {
		j := b.run[len(b.run)-1]
		b.run = b.run[:len(b.run)-1]
		b.advance(int(j))
	}
	wait := mm.in // blocked, its key published
	if mm.parked = wait; wait {
		mm.mb.wd.add()
	}
	if b.arrived == len(b.members) {
		b.flip()
	}
	b.mu.Unlock()
	if wait && !mm.mb.awaitRelease() {
		b.withdraw(mm)
	}
	if mm.fail != nil {
		panic(mm.fail)
	}
}

// advance plays member i's steps until a receive finds no message, publishing
// its key, or until they are done.  A send queues its receiver if it waits.
func (b *Board) advance(i int) {
	mm := &b.members[i]
	for ; mm.in && mm.pc < len(mm.steps); mm.pc++ {
		s := mm.steps[mm.pc]
		switch s.Kind {
		case StepSend:
			var payload []float64
			if s.Buf >= 0 {
				payload = mm.send[s.Buf]
			}
			d := &b.members[s.Peer]
			arrive, seq, err := mm.p.chargeSend(d.p.rank, int(s.Tag), len(payload)*8)
			if err != nil {
				b.finish(mm, err)
				return
			}
			d.inbox = append(d.inbox, boardMsg{off: len(mm.stage), n: len(payload), arrive: arrive, seq: seq})
			d.from = append(d.from, int32(i))
			mm.stage = append(mm.stage, payload...)
			if d.in && d.pc < len(d.steps) && d.steps[d.pc].Kind == StepRecv && int(d.steps[d.pc].Peer) == i {
				b.run = append(b.run, s.Peer)
			}
		case StepRecv:
			k := mm.first
			for k < len(mm.from) && mm.from[k] != s.Peer {
				k++
			}
			if k == len(mm.from) {
				mm.mb.waiting.Store(qkey(b.members[s.Peer].p.rank, int(s.Tag)))
				return
			}
			msg, src := mm.inbox[k], &b.members[s.Peer]
			if s.Buf >= 0 {
				mm.recv[s.Buf] = append(mm.recv[s.Buf][:0], src.stage[msg.off:msg.off+msg.n]...)
			}
			mm.from[k] = -1
			for mm.first < len(mm.from) && mm.from[mm.first] < 0 {
				mm.first++
			}
			if mm.first == len(mm.from) {
				mm.inbox, mm.from, mm.first = mm.inbox[:0], mm.from[:0], 0
			}
			if err := mm.p.chargeRecv(src.p.rank, msg.n*8, msg.arrive, msg.seq); err != nil {
				b.finish(mm, err)
				return
			}
		case StepCopy:
			mm.recv[s.Buf] = append(mm.recv[s.Buf][:0], mm.send[s.Buf]...)
		}
	}
	if mm.in {
		b.finish(mm, nil)
	}
}

// finish ends member mm's part in the call with the outcome it raises, and
// releases it if it waits.
func (b *Board) finish(mm *boardMember, err error) {
	mm.in, mm.fail = false, err
	mm.steps, mm.send, mm.recv = nil, nil, nil
	if mm.parked {
		mm.parked = false
		mm.mb.release()
	} else {
		mm.mb.waiting.Store(noWait) // it blocked and was unblocked within its own arrival
	}
}

// withdraw takes member mm, woken by its mailbox's close, off the board:
// unless it was released after all, it leaves as a victim of the abort.
func (b *Board) withdraw(mm *boardMember) {
	b.mu.Lock()
	parked := mm.parked
	if parked {
		mm.parked = false
		b.finish(mm, nil)
		mm.mb.wd.stuck.Add(-1)
	}
	b.mu.Unlock()
	if parked {
		panic(&abortedError{rank: mm.p.rank})
	}
	mm.mb.awaitRelease() // consume the release that raced the close
}

// flip readies the board for the next call once every member has arrived.  A
// member still in the call waits on one that crashed or failed, for good: it
// stays parked under its key until the machine aborts.
func (b *Board) flip() {
	b.arrived = 0
	for i := range b.members {
		mm := &b.members[i]
		mm.in, mm.steps, mm.send, mm.recv = false, nil, nil, nil
		mm.inbox, mm.from, mm.first, mm.stage = mm.inbox[:0], mm.from[:0], 0, mm.stage[:0]
	}
}

// reset empties the board for a new Run, keeping its buffers.
func (b *Board) reset() {
	b.flip()
	b.run = b.run[:0]
	for i := range b.members {
		b.members[i].parked, b.members[i].fail = false, nil
	}
}
