package sim

import (
	"fmt"
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
// filled every mailbox's message free list and payload pool.  Every message
// is echoed back to its sender, so no rank runs ahead of a neighbour and
// every queue drains every round (a queue that never drains keeps growing
// its slice).  testing.AllocsPerRun counts mallocs
// process-wide, so rank 0 starts it only when every rank has reported its
// warm-up done, and it calls its function runs+1 times, so the other 239
// ranks loop exactly runs+1 rounds.
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
