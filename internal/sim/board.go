package sim

// Collective boards: a complete collective — one no member can finish before
// every member has arrived — has a schedule that does not depend on its data,
// so its members' programs compile once per board into a flat plan.  Earlier
// arrivals park; the last one walks the plan, charged by chargeSend and
// chargeRecv, copying each payload once from the sender's buffer into the
// receiver's, and then releases them.  A call the plan cannot run — a fault
// hook installed, aliased buffers the plan would clobber, an arrival that
// never comes — runs as the messages the steps stand for.  DESIGN.md §5 has
// the invariants.

import (
	"fmt"
	"sync"
)

// StepKind says what a Step does.
type StepKind uint8

const (
	StepSend StepKind = iota // send the member's send[Buf] to Peer
	StepRecv                 // receive Peer's next message into recv[Buf]
)

// Step is one action of a member's program at a Board.  Peer is a member
// index and Tag the machine-level tag.  A negative Buf is an empty payload,
// received into nothing.  A message's wire size is 8 bytes per float64.
type Step struct {
	Kind      StepKind
	Peer, Buf int32
	Tag       int32
}

// Board runs one communicator's calls of one complete collective.
type Board struct {
	mu      sync.Mutex
	members []boardMember
	arrived int        // members that arrived in the current call
	own     bool       // the current call runs as messages: see handBack
	progs   [][]Step   // the programs the plan was compiled from
	plan    []planOp   // their steps in one order, nil if some never run
	clobber bool       // a program receives into a buffer index it sent from
	slots   []boardMsg // the plan's messages in flight
}

// boardMember is one member's slot, guarded by the board's lock.
type boardMember struct {
	p          *Proc
	mb         *mailbox
	steps      []Step
	send, recv [][]float64
	parked     bool // in awaitRelease for the last arrival, counted stuck
	own        bool // runs its steps as messages this call
}

// boardMsg is a message in flight: its payload is the sender's buffer.
type boardMsg struct {
	payload []float64
	arrive  float64
	seq     int64
}

// planOp is one step of the plan, by member m.  Peer is the peer's world
// rank; a send fills slot and the receive of the same message reads it.
type planOp struct {
	kind                    StepKind
	m, peer, buf, tag, slot int32
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

// Run plays member me's steps, sending from send and receiving into recv, and
// returns when they are done.  Programs must match message for message and
// not change while in use; no two buffers may share storage, though send may
// be recv.  Run raises a crash or delivery failure as the messages would, and
// aborts with the machine while it waits.
func (b *Board) Run(me int, steps []Step, send, recv [][]float64) {
	mm := &b.members[me]
	if mm.p.machine.fault != nil {
		b.messages(mm.p, steps, send, recv) // a crash raises mid-call
		return
	}
	b.mu.Lock()
	if mm.parked {
		b.mu.Unlock()
		panic(fmt.Sprintf("sim: rank %d arrived twice at a board", mm.p.rank))
	}
	mm.steps, mm.send, mm.recv, mm.own = steps, send, recv, b.own
	if b.arrived++; b.arrived < len(b.members) {
		mm.parked = !b.own // registered for the last arrival
	} else {
		if b.own || !b.usePlan() {
			b.handBack()
			mm.own = true
		} else {
			b.execute()
		}
		b.arrived, b.own = 0, false
	}
	wait := mm.parked
	b.mu.Unlock()
	if wait {
		// Counted after the unlock, so the watchdog can settle the board;
		// a release that gets in first un-counts it early, never twice.
		mm.mb.wd.add()
		if !mm.mb.awaitRelease() {
			b.withdraw(mm)
		}
	}
	if mm.own {
		b.messages(mm.p, steps, send, recv)
	}
}

// messages plays a member's steps as the messages they stand for.
func (b *Board) messages(p *Proc, steps []Step, send, recv [][]float64) {
	for _, s := range steps {
		peer, tag := b.members[s.Peer].p.rank, int(s.Tag)
		switch {
		case s.Kind == StepSend && s.Buf >= 0:
			p.SendFloatsCopy(peer, tag, send[s.Buf], len(send[s.Buf])*8)
		case s.Kind == StepSend:
			p.SendFloatsCopy(peer, tag, nil, 0)
		case s.Buf < 0:
			p.RecvFloatsInto(peer, tag, nil)
		default:
			recv[s.Buf] = p.RecvFloatsInto(peer, tag, recv[s.Buf])
		}
	}
}

// handBack turns the current call over to the messages: every member parked
// in it, and every later arrival, runs its steps as messages.
func (b *Board) handBack() {
	b.own = true
	for i := range b.members {
		if mm := &b.members[i]; mm.parked {
			mm.parked, mm.own = false, true
			mm.mb.release()
		}
	}
}

// usePlan compiles the call's programs unless the plan holds them, each by
// its backing array and length, and reports whether the plan may run the
// call: every step is in it, and no member whose sends and receives are one
// buffer list writes a buffer it has sent from.
func (b *Board) usePlan() bool {
	fresh := len(b.progs) == len(b.members)
	for i := 0; fresh && i < len(b.members); i++ {
		s := b.members[i].steps
		fresh = len(s) == len(b.progs[i]) && (len(s) == 0 || &s[0] == &b.progs[i][0])
	}
	if !fresh {
		b.compile()
	}
	for i := range b.members {
		if s, r := b.members[i].send, b.members[i].recv; b.clobber && len(s) > 0 && len(r) > 0 && &s[0] == &r[0] {
			return false // AlltoallvInto(parts, parts)
		}
	}
	return b.plan != nil
}

// compile orders the members' steps in sweeps, each member running in each
// as far as the messages sent so far allow: a member's steps stay together,
// a receive takes the first unreceived message from its peer, and the slot it
// frees serves a later send, so the ring keeps about one slot per member.
func (b *Board) compile() {
	type pending struct{ src, slot int32 }
	inbox := make([][]pending, len(b.members))
	pc := make([]int, len(b.members))
	var free []int32
	sentBy := map[int32]int{} // buffer index -> 1 + the member last seen sending from it
	b.progs, b.plan, b.clobber, b.slots = b.progs[:0], b.plan[:0], false, b.slots[:0]
	steps := 0
	for i := range b.members {
		b.progs = append(b.progs, b.members[i].steps)
		steps += len(b.members[i].steps)
		for _, s := range b.members[i].steps {
			if s.Kind == StepSend {
				sentBy[s.Buf] = i + 1
			} else if s.Buf >= 0 && sentBy[s.Buf] == i+1 {
				b.clobber = true
			}
		}
	}
	for moved := true; moved; {
		moved = false
		for i, prog := range b.progs {
			for ; pc[i] < len(prog); pc[i]++ {
				s := prog[pc[i]]
				op := planOp{kind: s.Kind, m: int32(i), peer: int32(b.members[s.Peer].p.rank), buf: s.Buf, tag: s.Tag}
				if s.Kind == StepRecv {
					k := 0
					for k < len(inbox[i]) && inbox[i][k].src != s.Peer {
						k++
					}
					if k == len(inbox[i]) {
						break
					}
					op.slot = inbox[i][k].slot
					inbox[i] = append(inbox[i][:k], inbox[i][k+1:]...)
					free = append(free, op.slot)
				} else if s.Kind == StepSend {
					if k := len(free); k > 0 {
						op.slot, free = free[k-1], free[:k-1]
					} else {
						op.slot, b.slots = int32(len(b.slots)), append(b.slots, boardMsg{})
					}
					inbox[s.Peer] = append(inbox[s.Peer], pending{int32(i), op.slot})
				}
				b.plan = append(b.plan, op)
				moved = true
			}
		}
	}
	if len(b.plan) < steps {
		b.plan = nil
	}
}

// execute walks the plan and then releases every member.  No fault hook is
// installed, so no charge can fail; no member is released before the walk
// ends, so every sender's buffer still holds what it sent.
func (b *Board) execute() {
	for i := range b.plan {
		op := &b.plan[i]
		mm, msg := &b.members[op.m], &b.slots[op.slot]
		if op.kind == StepSend {
			msg.payload = nil
			if op.buf >= 0 {
				msg.payload = mm.send[op.buf]
			}
			msg.arrive, msg.seq, _ = mm.p.chargeSend(int(op.peer), int(op.tag), len(msg.payload)*8)
		} else {
			_ = mm.p.chargeRecv(int(op.peer), len(msg.payload)*8, msg.arrive, msg.seq)
			if op.buf >= 0 {
				mm.recv[op.buf] = append(mm.recv[op.buf][:0], msg.payload...)
			}
		}
	}
	for i := range b.members {
		if mm := &b.members[i]; mm.parked {
			mm.parked = false
			mm.mb.release()
		}
	}
}

// withdraw takes member mm, woken by its mailbox's close, off the board:
// unless it was released after all, it leaves as a victim of the abort.
func (b *Board) withdraw(mm *boardMember) {
	b.mu.Lock()
	parked := mm.parked
	if parked {
		mm.parked = false
		mm.mb.wd.stuck.Add(-1)
	}
	b.mu.Unlock()
	if parked {
		panic(&abortedError{rank: mm.p.rank})
	}
	mm.mb.awaitRelease() // consume the release that raced the close
}

// reset empties the board for a new Run, keeping its plan: a Run ends with
// no member parked.
func (b *Board) reset() { b.arrived, b.own = 0, false }

// settleBoards hands every unfinished call back to the messages, so its
// arrived members block, and publish their keys, where the messages would
// leave them.
func (m *Machine) settleBoards() {
	m.sharedMu.Lock()
	defer m.sharedMu.Unlock()
	for _, b := range m.boards {
		b.mu.Lock()
		if !b.own && b.arrived > 0 {
			b.handBack() //lint:allow lockorder the watchdog settles only when every rank is counted stuck: none holds a board or the store, and each mailbox released is a parked member's, which waits on no lock
		}
		b.mu.Unlock()
	}
}
