package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// TestFloatTransportForms sends one payload under both send names —
// SendFloatsCopy and the SendFloats forwarder the frozen benchmark probe calls
// — into RecvFloatsInto: both are the one enqueue body, so both must deliver
// the same values at the same virtual time and leave the sender free to reuse
// its buffer.
func TestFloatTransportForms(t *testing.T) {
	sends := []struct {
		name string
		send func(p *Proc, data []float64)
	}{
		{"SendFloats", func(p *Proc, data []float64) { p.SendFloats(1, 4, data, 8*len(data)) }},
		{"SendFloatsCopy", func(p *Proc, data []float64) { p.SendFloatsCopy(1, 4, data, 8*len(data)) }},
	}
	var clocks []float64
	for _, s := range sends {
		s := s
		res, err := New(2, newTestModel()).Run(func(p *Proc) error {
			if p.Rank() == 0 {
				data := []float64{1, 2, 3}
				s.send(p, data)
				data[0] = 99 // the receiver must not see this
				return nil
			}
			if got := p.RecvFloatsInto(0, 4, make([]float64, 1, 8)); fmt.Sprint(got) != "[1 2 3]" {
				return fmt.Errorf("%s delivered %v, want [1 2 3]", s.name, got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		clocks = append(clocks, res.Clocks[1])
	}
	if clocks[0] != clocks[1] {
		t.Errorf("SendFloats finished at %g, SendFloatsCopy at %g: the names must cost the same", clocks[0], clocks[1])
	}
}

// TestTransportValueSemantics pins the one ownership rule from both sides.
// The sender posts two messages on one (src, tag) before the receiver takes
// either, overwriting its buffer after each send; the receiver scribbles over
// what it received before taking the second, and takes the third into the
// same buffer once a recycled message carries it.  No write on either side
// may reach a message in flight or one delivered later.
func TestTransportValueSemantics(t *testing.T) {
	_, err := New(2, newTestModel()).Run(func(p *Proc) error {
		if p.Rank() == 0 {
			data := []float64{1, 2, 3}
			p.SendFloatsCopy(1, 4, data, 24)
			data[0], data[1], data[2] = 4, 5, 6
			p.SendFloatsCopy(1, 4, data, 24)
			data[0], data[1], data[2] = -1, -1, -1
			p.SendFloatsCopy(1, 5, nil, 0) // both are posted
			p.RecvFloatsInto(1, 5, nil)    // the first is back on the free list
			data[0], data[1], data[2] = 7, 8, 9
			p.SendFloatsCopy(1, 4, data, 24)
			data[0] = -1
			return nil
		}
		p.RecvFloatsInto(0, 5, nil)
		var buf []float64
		for i, want := range []string{"[1 2 3]", "[4 5 6]", "[7 8 9]"} {
			buf = p.RecvFloatsInto(0, 4, buf)
			if got := fmt.Sprint(buf); got != want {
				return fmt.Errorf("message %d delivered %v, want %s", i, got, want)
			}
			for j := range buf {
				buf[j] = -2 // must not reach the mailbox's copy of a later message
			}
			if i == 0 {
				p.SendFloatsCopy(0, 5, nil, 0)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestZeroLengthRoundTrip pins the synchronisation token: a nil payload with
// bytes = 0 arrives as a length-0 slice whether the receiver offers a buffer
// or nil, moves no data, and — riding the n = 0 free list — allocates nothing
// once the first round has carved its messages.
func TestZeroLengthRoundTrip(t *testing.T) {
	_, err := New(2, newTestModel()).Run(func(p *Proc) error {
		peer := 1 - p.Rank()
		round := func() error {
			p.SendFloatsCopy(peer, 1, nil, 0)
			if got := p.RecvFloatsInto(peer, 1, nil); len(got) != 0 {
				return fmt.Errorf("token into nil arrived as %v, want length 0", got)
			}
			p.SendFloatsCopy(peer, 1, []float64{}, 0)
			if got := p.RecvFloatsInto(peer, 1, make([]float64, 3)); len(got) != 0 || cap(got) != 3 {
				return fmt.Errorf("token into a buffer arrived as len %d cap %d, want 0 and 3", len(got), cap(got))
			}
			return nil
		}
		if err := round(); err != nil {
			return err
		}
		if p.BytesSent() != 0 || p.MessagesSent() != 2 {
			return fmt.Errorf("two tokens counted as %d messages, %d bytes; want 2 and 0", p.MessagesSent(), p.BytesSent())
		}
		const runs = 100
		token := func() {
			p.SendFloatsCopy(peer, 2, nil, 0)
			p.RecvFloatsInto(peer, 2, nil)
		}
		token()
		if p.Rank() == 1 {
			for i := 0; i < runs+1; i++ {
				token()
			}
			return nil
		}
		if n := testing.AllocsPerRun(runs, token); n != 0 {
			return fmt.Errorf("a token round trip allocated %.1f times; want 0", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCopyTransportAllocFree pins the steady state of the transport the
// model's traffic takes — SendFloatsCopy into RecvFloatsInto — at zero
// allocations per round on a 240-rank ring, once the warm-up rounds have
// filled every mailbox's free lists.  Every message is echoed back to its
// sender, so no rank runs further ahead of a neighbour than the warm-up saw.
// testing.AllocsPerRun counts mallocs process-wide, so rank 0 starts it only
// when every rank has reported its warm-up done, and it calls its function
// runs+1 times, so the other 239 ranks loop exactly runs+1 rounds.
func TestCopyTransportAllocFree(t *testing.T) {
	const ranks, warm, runs = 240, 5, 50
	_, err := New(ranks, newTestModel()).Run(func(p *Proc) error {
		data := make([]float64, 144)
		buf, echo := make([]float64, 144), make([]float64, 144)
		right, left := (p.Rank()+1)%ranks, (p.Rank()+ranks-1)%ranks
		round := func() {
			p.SendFloatsCopy(right, 1, data, 8*len(data))
			buf = p.RecvFloatsInto(left, 1, buf)
			p.SendFloatsCopy(left, 2, buf, 8*len(buf))
			echo = p.RecvFloatsInto(right, 2, echo)
		}
		for i := 0; i < warm; i++ {
			round()
		}
		if p.Rank() != 0 {
			p.SendFloatsCopy(0, 3, nil, 0)
			p.RecvFloatsInto(0, 3, nil)
		} else {
			for r := 1; r < ranks; r++ {
				p.RecvFloatsInto(r, 3, nil)
			}
			for r := 1; r < ranks; r++ {
				p.SendFloatsCopy(r, 3, nil, 0)
			}
		}
		if p.Rank() == 0 {
			if n := testing.AllocsPerRun(runs, round); n != 0 {
				return fmt.Errorf("SendFloatsCopy/RecvFloatsInto ring allocated %.1f times per round; want 0", n)
			}
			return nil
		}
		for i := 0; i < runs+1; i++ {
			round()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQueueSenderOneAheadAllocFree pins the queue that never drains: the
// sender posts message i+2 before the receiver takes message i+1, so the
// (0, 1) queue holds at least one message from the first round to the last.
// A slice-backed queue that only rewinds when it empties grows for as long as
// that lasts; a list has nothing to grow.  AllocsPerRun(1, f) calls f twice
// and reports the mallocs of the second call, here 10 000 messages.
func TestQueueSenderOneAheadAllocFree(t *testing.T) {
	const msgs = 10000
	_, err := New(2, newTestModel()).Run(func(p *Proc) error {
		data, buf := make([]float64, 8), make([]float64, 8)
		if p.Rank() == 1 {
			for i := 0; i < 2*msgs; i++ {
				buf = p.RecvFloatsInto(0, 1, buf)
				p.SendFloatsCopy(0, 2, nil, 0) // took message i
				p.RecvFloatsInto(0, 3, nil)    // message i+2 is posted
			}
			return nil
		}
		p.SendFloatsCopy(1, 1, data, 64)
		p.SendFloatsCopy(1, 1, data, 64)
		n := testing.AllocsPerRun(1, func() {
			for i := 0; i < msgs; i++ {
				p.RecvFloatsInto(1, 2, nil)
				p.SendFloatsCopy(1, 1, data, 64)
				p.SendFloatsCopy(1, 3, nil, 0)
			}
		})
		if n != 0 {
			return fmt.Errorf("a queue kept one message deep allocated %.0f times over %d messages; want 0", n, msgs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestColdRunAllocBudget pins what a fresh Machine pays to bring its
// mailboxes up: 240 ranks, one ring allgather of one float (239 messages per
// mailbox on one key, the load-estimate exchange) and one 30-way exchange of
// 25 floats (29 keys per mailbox, the transpose).  Messages, queues and these
// short payloads are carved from per-mailbox chunks, so the whole run costs a
// few dozen mallocs per rank; allocating any of the three one by one costs
// hundreds (a make per payload: 175).  Measured 36 to 43 per rank, depending
// on how far ahead the schedule lets the ring's senders run; the budget is a
// fifth above that.
func TestColdRunAllocBudget(t *testing.T) {
	const ranks, group, budget = 240, 30, 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := New(ranks, newTestModel()).Run(func(p *Proc) error {
		one, block := make([]float64, 1), make([]float64, 25)
		right, left := (p.Rank()+1)%ranks, (p.Rank()+ranks-1)%ranks
		for i := 1; i < ranks; i++ {
			p.SendFloatsCopy(right, 1, one, 8)
			one = p.RecvFloatsInto(left, 1, one)
		}
		base := p.Rank() / group * group
		for i := 1; i < group; i++ {
			p.SendFloatsCopy(base+(p.Rank()+i)%group, 2, block, 200)
		}
		for i := 1; i < group; i++ {
			block = p.RecvFloatsInto(base+(p.Rank()+group-i)%group, 2, block)
		}
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if perRank := float64(after.Mallocs-before.Mallocs) / ranks; perRank > budget {
		t.Fatalf("cold 240-rank run cost %.1f mallocs per rank; budget %d", perRank, budget)
	} else {
		t.Logf("cold 240-rank run: %.1f mallocs per rank (budget %d)", perRank, budget)
	}
}

// TestNewMachineMemory pins what a large machine costs before it runs: a
// 4096-rank sim.New retains at most 4 MiB of heap.  Each mailbox's page table
// is one pointer per 64 sources and pages come on first use; a flat table of
// one queue pointer per source would retain about 130 MiB here.
func TestNewMachineMemory(t *testing.T) {
	const ranks, budget = 4096, 4 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := New(ranks, newTestModel())
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if kept > budget {
		t.Fatalf("sim.New(%d) retained %.2f MiB; budget %d MiB", ranks, float64(kept)/(1<<20), budget>>20)
	}
	t.Logf("sim.New(%d) retained %.2f MiB (budget %d MiB)", ranks, float64(kept)/(1<<20), budget>>20)
}

// BenchmarkTransportAlternating measures the per-message cost of a rank
// alternating partners, the pattern of every transpose and all-to-all: one op
// is a round of 30 ranks each sending 25 floats to the 29 others on one tag,
// then one float around a ring on another.  ns/msg divides by the 900
// messages of a round.
func BenchmarkTransportAlternating(b *testing.B) {
	const ranks, block = 30, 25
	m := New(ranks, newTestModel())
	body := func(rounds int) func(p *Proc) error {
		return func(p *Proc) error {
			me := p.Rank()
			data, buf, one := make([]float64, block), make([]float64, block), make([]float64, 1)
			for r := 0; r < rounds; r++ {
				for i := 1; i < ranks; i++ {
					p.SendFloatsCopy((me+i)%ranks, 1, data, 8*block)
				}
				for i := 1; i < ranks; i++ {
					buf = p.RecvFloatsInto((me+ranks-i)%ranks, 1, buf)
				}
				p.SendFloatsCopy((me+1)%ranks, 2, one, 8)
				one = p.RecvFloatsInto((me+ranks-1)%ranks, 2, one)
			}
			return nil
		}
	}
	if _, err := m.Run(body(2)); err != nil { // warm every mailbox
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := m.Run(body(b.N)); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ranks*ranks), "ns/msg")
}
