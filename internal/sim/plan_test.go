package sim

// The compiled plan against the messages its steps stand for: seeded random
// programs — rounds of shifts over per-member buffers, a member that receives
// before it sends, empty payloads, buffer lists shared between sends and
// receives — run by members arriving in seeded orders, with and without a
// member that skips the last call.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// planBufs is the number of buffers in each member's send and receive lists,
// and planCalls the calls of a case's program per Run.
const (
	planBufs  = 4
	planCalls = 3
)

// planCase is one seeded program and the arrival orders of its calls.
type planCase struct {
	n      int
	seed   int64
	progs  [][]Step
	alias  bool    // each member's sends and receives use one buffer list
	skip   int     // the member that skips the last call, or -1
	orders [][]int // per call, each member's place in the arrival order
}

// newPlanCase draws a program of one to five shift rounds over n members,
// closed by a dissemination barrier so no member finishes before all arrive.
// In each round every member sends to me+k and receives from me-k, one member
// receiving first; a buffer index of -1 sends or receives an empty payload.
func newPlanCase(seed int64, n int, order int64, alias, skip bool) *planCase {
	rng := rand.New(rand.NewSource(seed))
	pc := &planCase{n: n, seed: seed, progs: make([][]Step, n), alias: alias, skip: -1}
	buf := func() int32 { return int32(rng.Intn(planBufs+1)) - 1 }
	for r := 1 + rng.Intn(5); r > 0; r-- {
		k, first := 1+rng.Intn(n-1), rng.Intn(n)
		for me := range pc.progs {
			send := Step{Kind: StepSend, Peer: int32((me + k) % n), Buf: buf(), Tag: boardTag}
			recv := Step{Kind: StepRecv, Peer: int32((me - k + n) % n), Buf: buf(), Tag: boardTag}
			if me == first {
				send, recv = recv, send
			}
			pc.progs[me] = append(pc.progs[me], send, recv)
		}
	}
	for d := 1; d < n; d *= 2 {
		for me := range pc.progs {
			pc.progs[me] = append(pc.progs[me],
				Step{Kind: StepSend, Peer: int32((me + d) % n), Buf: -1, Tag: boardTag},
				Step{Kind: StepRecv, Peer: int32((me - d + n) % n), Buf: -1, Tag: boardTag})
		}
	}
	ord := rand.New(rand.NewSource(order))
	if skip {
		pc.skip = ord.Intn(n)
	}
	for c := 0; c < planCalls; c++ {
		place := make([]int, n)
		next := 0
		for _, me := range ord.Perm(n) {
			if c == planCalls-1 && me == pc.skip {
				continue
			}
			place[me], next = next, next+1
		}
		pc.orders = append(pc.orders, place)
	}
	return pc
}

// The ways a case runs.
const (
	viaPlan     = iota // Board.Run, no fault hook: the compiled plan
	viaGeneric         // Board.Run with a fault hook that changes nothing
	viaMessages        // the steps as mailbox messages, no board
)

// run plays the case on a fresh machine, event log on, and returns its
// Result, per member a digest of every buffer after each call, and its error.
func (pc *planCase) run(t *testing.T, via int) (*Result, []uint64, error) {
	t.Helper()
	models := make([]CostModel, pc.n)
	for r := range models {
		m := *newTestModel()
		m.so, m.ro = m.so*float64(1+r%3), m.ro*float64(1+r%2)
		models[r] = &m
	}
	m := NewHeterogeneous(models)
	m.SetEventLog(true)
	if via == viaGeneric {
		m.SetFaultHook(&stubFault{})
	}
	world := make([]int, pc.n)
	for i := range world {
		world[i] = i
	}
	digest := make([]uint64, pc.n)
	var res *Result
	var err error
	runWithin(t, func() {
		res, err = m.Run(func(p *Proc) error {
			me := p.Rank()
			send := make([][]float64, planBufs)
			recv := send
			if !pc.alias {
				recv = make([][]float64, planBufs)
			}
			h := uint64(14695981039346656037)
			for c := 0; c < planCalls; c++ {
				if c == planCalls-1 && me == pc.skip {
					return nil
				}
				p.Compute(float64(1000 * ((me*7 + c*3) % 5)))
				for j := range send {
					send[j] = planPayload(send[j][:0], pc.seed, me, j, c)
				}
				switch via {
				case viaMessages:
					stepsAsMessages(p, world, pc.progs[me], send, recv)
				case viaPlan:
					b := BoardFor(p, "plan", world)
					awaitArrived(b, pc.orders[c][me])
					b.Run(me, pc.progs[me], send, recv)
				default:
					BoardFor(p, "plan", world).Run(me, pc.progs[me], send, recv)
				}
				for _, bufs := range [][][]float64{send, recv} {
					for _, f := range bufs {
						h = (h ^ uint64(len(f))) * 1099511628211
						for _, v := range f {
							h = (h ^ math.Float64bits(v)) * 1099511628211
						}
					}
				}
				digest[me] = h
			}
			return nil
		})
	})
	return res, digest, err
}

// planPayload refills buf with member me's call-c payload for buffer j: zero
// to nine floats of raw bits, a pure function of its arguments.
func planPayload(buf []float64, seed int64, me, j, c int) []float64 {
	rng := rand.New(rand.NewSource(seed ^ int64(me)<<40 ^ int64(j)<<20 ^ int64(c)))
	for k := rng.Intn(10); k > 0; k-- {
		buf = append(buf, math.Float64frombits(rng.Uint64()))
	}
	return buf
}

// stepsAsMessages plays a member's steps through the mailboxes.
func stepsAsMessages(p *Proc, world []int, steps []Step, send, recv [][]float64) {
	for _, s := range steps {
		peer, tag := world[s.Peer], int(s.Tag)
		switch {
		case s.Kind == StepSend && s.Buf < 0:
			p.SendFloatsCopy(peer, tag, nil, 0)
		case s.Kind == StepSend:
			p.SendFloatsCopy(peer, tag, send[s.Buf], 8*len(send[s.Buf]))
		case s.Buf < 0:
			p.RecvFloatsInto(peer, tag, nil)
		default:
			recv[s.Buf] = p.RecvFloatsInto(peer, tag, recv[s.Buf])
		}
	}
}

// awaitArrived spins until k members have arrived in the board's current call.
func awaitArrived(b *Board, k int) {
	for {
		b.mu.Lock()
		n := b.arrived
		b.mu.Unlock()
		if n == k {
			return
		}
		runtime.Gosched()
	}
}

// checkPlanCase runs the case all three ways and requires the same error,
// Result bits and buffer digests of each.
func checkPlanCase(t *testing.T, pc *planCase) {
	t.Helper()
	wantRes, wantDigest, wantErr := pc.run(t, viaMessages)
	if pc.skip >= 0 {
		var de *DeadlockError
		if !errors.As(wantErr, &de) {
			t.Fatalf("messages with member %d skipping: error %v, want a deadlock", pc.skip, wantErr)
		}
	} else if wantErr != nil {
		t.Fatalf("messages: %v", wantErr)
	}
	for _, via := range []int{viaPlan, viaGeneric} {
		res, digest, err := pc.run(t, via)
		if !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("via %d: error %v, want %v", via, err, wantErr)
		}
		if g, w := fmt.Sprintf("%+v", *res), fmt.Sprintf("%+v", *wantRes); g != w {
			t.Fatalf("via %d: Result\n got %s\nwant %s", via, g, w)
		}
		if !reflect.DeepEqual(digest, wantDigest) {
			t.Fatalf("via %d: buffer digests %x, want %x", via, digest, wantDigest)
		}
	}
}

// FuzzBoardPlan fuzzes program shape × arrival order: the plan and the
// generic path must leave every clock, wait, counter, event, buffer bit and
// error the messages leave.  The seed corpus runs as a plain test.
func FuzzBoardPlan(f *testing.F) {
	for seed := int64(1); seed <= 16; seed++ {
		f.Add(seed, uint8(seed), seed*31, seed%2 == 0, seed%5 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8, order int64, alias, skip bool) {
		checkPlanCase(t, newPlanCase(seed, 2+int(n%8), order, alias, skip))
	})
}

// TestBoardCompileRejectsClobber: the compiler marks a program that receives
// into a buffer index it has sent from, and such a call runs as messages when
// the member's sends and receives share one buffer list; the ring, which only
// forwards what it received, runs the plan either way, and a program with a
// receive no send matches gets no plan.
func TestBoardCompileRejectsClobber(t *testing.T) {
	const n = 3
	m := New(n, newTestModel())
	b := &Board{members: make([]boardMember, n)}
	for i := range b.members {
		b.members[i].p = m.procs[i]
	}
	alltoall := func(me int) []Step { // parts[me+k] to me+k, then out[me-k] from me-k
		var steps []Step
		for k := 1; k < n; k++ {
			steps = append(steps, Step{Kind: StepSend, Peer: int32((me + k) % n), Buf: int32((me + k) % n), Tag: boardTag})
		}
		for k := 1; k < n; k++ {
			steps = append(steps, Step{Kind: StepRecv, Peer: int32((me - k + n) % n), Buf: int32((me - k + n) % n), Tag: boardTag})
		}
		return steps
	}
	orphan := func(me int) []Step { return []Step{{Kind: StepRecv, Peer: int32((me + 1) % n), Buf: 0, Tag: boardTag}} }
	for _, c := range []struct {
		name           string
		prog           func(me int) []Step
		clobber, plan  bool
		distinct, same bool // usePlan with separate lists, with one list
	}{
		{"ring", func(me int) []Step { return ringProgram(me, n) }, false, true, true, true},
		{"all-to-all", alltoall, true, true, true, false},
		{"unmatched receive", orphan, false, false, false, false},
	} {
		for i := range b.members {
			b.members[i].steps = c.prog(i)
		}
		b.compile()
		if b.clobber != c.clobber || (b.plan != nil) != c.plan {
			t.Fatalf("%s: clobber %v, plan %v; want %v, %v", c.name, b.clobber, b.plan != nil, c.clobber, c.plan)
		}
		for _, same := range []bool{false, true} {
			for i := range b.members {
				b.members[i].send, b.members[i].recv = make([][]float64, n), make([][]float64, n)
				if same {
					b.members[i].recv = b.members[i].send
				}
			}
			if want := map[bool]bool{false: c.distinct, true: c.same}[same]; b.usePlan() != want {
				t.Fatalf("%s: usePlan with one list %v = %v, want %v", c.name, same, !want, want)
			}
		}
	}
}
