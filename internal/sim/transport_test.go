package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// TestFloatTransportForms sends one float payload through every pairing of
// the three send forms (boxed Send, by-reference SendFloats, pooled
// SendFloatsCopy) with the two receive forms (Recv, RecvFloatsInto): all six
// go through the one enqueue body, so all must deliver the same values at the
// same virtual time, and only the copying send may leave the sender free to
// reuse its buffer.
func TestFloatTransportForms(t *testing.T) {
	sends := []struct {
		name   string
		copies bool
		send   func(p *Proc, data []float64)
	}{
		{"Send", false, func(p *Proc, data []float64) { p.Send(1, 4, data, 8*len(data)) }},
		{"SendFloats", false, func(p *Proc, data []float64) { p.SendFloats(1, 4, data, 8*len(data)) }},
		{"SendFloatsCopy", true, func(p *Proc, data []float64) { p.SendFloatsCopy(1, 4, data, 8*len(data)) }},
	}
	recvs := []struct {
		name string
		recv func(p *Proc) []float64
	}{
		{"Recv", func(p *Proc) []float64 { return p.Recv(0, 4).([]float64) }},
		{"RecvFloatsInto", func(p *Proc) []float64 { return p.RecvFloatsInto(0, 4, make([]float64, 1, 8)) }},
	}
	var clocks []float64
	for _, s := range sends {
		for _, r := range recvs {
			s, r := s, r
			res, err := New(2, newTestModel()).Run(func(p *Proc) error {
				if p.Rank() == 0 {
					data := []float64{1, 2, 3}
					s.send(p, data)
					if s.copies {
						data[0] = 99 // the receiver must not see this
					}
					return nil
				}
				if got := r.recv(p); fmt.Sprint(got) != "[1 2 3]" {
					return fmt.Errorf("%s -> %s delivered %v, want [1 2 3]", s.name, r.name, got)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			clocks = append(clocks, res.Clocks[1])
		}
	}
	for i, c := range clocks {
		if c != clocks[0] {
			t.Errorf("pairing %d finished at %g, pairing 0 at %g: the forms must cost the same", i, c, clocks[0])
		}
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
			p.Send(0, 3, nil, 0)
			p.Recv(0, 3)
		} else {
			for r := 1; r < ranks; r++ {
				p.Recv(r, 3)
			}
			for r := 1; r < ranks; r++ {
				p.Send(r, 3, nil, 0)
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
				p.Send(0, 2, nil, 0) // took message i
				p.Recv(0, 3)         // message i+2 is posted
			}
			return nil
		}
		p.SendFloatsCopy(1, 1, data, 64)
		p.SendFloatsCopy(1, 1, data, 64)
		n := testing.AllocsPerRun(1, func() {
			for i := 0; i < msgs; i++ {
				p.Recv(1, 2)
				p.SendFloatsCopy(1, 1, data, 64)
				p.Send(1, 3, nil, 0)
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
