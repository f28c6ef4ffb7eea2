package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// testModel is a simple cost model with unit-friendly constants.
type testModel struct {
	flop, mem, so, ro, lat, byteTime float64
}

func (m *testModel) FlopSeconds(n float64) float64         { return n * m.flop }
func (m *testModel) MemSeconds(n float64) float64          { return n * m.mem }
func (m *testModel) SendOverheadSeconds(bytes int) float64 { return m.so }
func (m *testModel) RecvOverheadSeconds(bytes int) float64 { return m.ro }
func (m *testModel) NetworkSeconds(bytes int) float64      { return m.lat + float64(bytes)*m.byteTime }

func newTestModel() *testModel {
	return &testModel{flop: 1e-6, mem: 1e-8, so: 1e-5, ro: 1e-5, lat: 1e-4, byteTime: 1e-7}
}

func TestMachineRanks(t *testing.T) {
	m := New(4, newTestModel())
	if got := m.Ranks(); got != 4 {
		t.Fatalf("Ranks() = %d, want 4", got)
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("New(0, model) did not panic")
		}
	}()
	New(0, newTestModel())
}

func TestNewPanicsOnNilModel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("New(1, nil) did not panic")
		}
	}()
	New(1, nil)
}

func TestComputeAdvancesClock(t *testing.T) {
	m := New(1, newTestModel())
	res, err := m.Run(func(p *Proc) error {
		p.Compute(1000)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 1000 * 1e-6
	if got := res.Clocks[0]; math.Abs(got-want) > 1e-15 {
		t.Fatalf("clock = %g, want %g", got, want)
	}
}

func TestComputeMemAddsBothTerms(t *testing.T) {
	m := New(1, newTestModel())
	res, _ := m.Run(func(p *Proc) error {
		p.ComputeMem(100, 200)
		return nil
	})
	want := 100*1e-6 + 200*1e-8
	if got := res.Clocks[0]; math.Abs(got-want) > 1e-15 {
		t.Fatalf("clock = %g, want %g", got, want)
	}
}

func TestSendRecvClockPropagation(t *testing.T) {
	model := newTestModel()
	m := New(2, model)
	const bytes = 800
	res, err := m.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			p.Compute(5000) // 5 ms of work before sending
			p.SendFloatsCopy(1, 7, []float64{1, 2, 3}, bytes)
		} else {
			got := p.RecvFloatsInto(0, 7, nil)
			if len(got) != 3 || got[2] != 3 {
				return fmt.Errorf("bad payload %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sender: compute + send overhead.
	wantSender := 5000*model.flop + model.so
	if got := res.Clocks[0]; math.Abs(got-wantSender) > 1e-15 {
		t.Fatalf("sender clock = %g, want %g", got, wantSender)
	}
	// Receiver: idle until arrival, then recv overhead.
	wantRecv := wantSender + model.lat + bytes*model.byteTime + model.ro
	if got := res.Clocks[1]; math.Abs(got-wantRecv) > 1e-14 {
		t.Fatalf("receiver clock = %g, want %g", got, wantRecv)
	}
}

func TestRecvDoesNotRewindClock(t *testing.T) {
	model := newTestModel()
	m := New(2, model)
	res, err := m.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			p.SendFloatsCopy(1, 1, []float64{42}, 8)
		} else {
			p.Compute(1e6) // 1 virtual second: message arrives long before
			p.RecvFloatsInto(0, 1, nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 1e6*model.flop + model.ro
	if got := res.Clocks[1]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("receiver clock = %g, want %g (recv must not rewind)", got, want)
	}
}

func TestMessagesMatchedBySourceAndTagFIFO(t *testing.T) {
	m := New(3, newTestModel())
	_, err := m.Run(func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.SendFloatsCopy(2, 5, []float64{10}, 8)
			p.SendFloatsCopy(2, 5, []float64{11}, 8)
			p.SendFloatsCopy(2, 6, []float64{12}, 8)
		case 1:
			p.SendFloatsCopy(2, 5, []float64{20}, 8)
		case 2:
			// Receive out of arrival order on purpose: tag 6 first.
			if v := p.RecvFloatsInto(0, 6, nil)[0]; v != 12 {
				return fmt.Errorf("tag 6 got %v, want 12", v)
			}
			if v := p.RecvFloatsInto(1, 5, nil)[0]; v != 20 {
				return fmt.Errorf("src 1 got %v, want 20", v)
			}
			if v := p.RecvFloatsInto(0, 5, nil)[0]; v != 10 {
				return fmt.Errorf("first src-0 tag-5 got %v, want 10 (FIFO)", v)
			}
			if v := p.RecvFloatsInto(0, 5, nil)[0]; v != 11 {
				return fmt.Errorf("second src-0 tag-5 got %v, want 11 (FIFO)", v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSend(t *testing.T) {
	m := New(1, newTestModel())
	_, err := m.Run(func(p *Proc) error {
		p.SendFloatsCopy(0, 3, []float64{7}, 8)
		if v := p.RecvFloatsInto(0, 3, nil)[0]; v != 7 {
			return fmt.Errorf("self-send payload %v, want 7", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendInvalidRankPanicsIntoError(t *testing.T) {
	m := New(2, newTestModel())
	_, err := m.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			p.SendFloatsCopy(5, 0, nil, 0)
		} else {
			p.RecvFloatsInto(0, 0, nil) // will be unblocked by shutdown
		}
		return nil
	})
	if err == nil {
		t.Fatalf("send to invalid rank did not produce an error")
	}
}

// TestTagOutsideRangePanicsIntoError: a tag the published wait key cannot
// hold exactly aborts the run at the send or receive that names it, and the
// largest tag in range still travels and is reported exactly in a deadlock.
func TestTagOutsideRangePanicsIntoError(t *testing.T) {
	for _, tag := range []int{-1, maxTag, math.MinInt, math.MaxInt} {
		for _, recv := range []bool{false, true} {
			_, err := New(2, newTestModel()).Run(func(p *Proc) error {
				switch {
				case p.Rank() == 1:
				case recv:
					p.RecvFloatsInto(1, tag, nil)
				default:
					p.SendFloatsCopy(1, tag, nil, 0)
				}
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("invalid tag %d", tag)) {
				t.Errorf("tag %d (recv %v): err = %v, want an invalid-tag panic", tag, recv, err)
			}
		}
	}
	const top = maxTag - 1
	_, err := New(2, newTestModel()).Run(func(p *Proc) error {
		if p.Rank() == 0 {
			p.SendFloatsCopy(1, top, []float64{1}, 8)
			p.RecvFloatsInto(1, top, nil) // never sent
			return nil
		}
		if got := p.RecvFloatsInto(0, top, nil); len(got) != 1 || got[0] != 1 {
			return fmt.Errorf("tag %d delivered %v, want [1]", top, got)
		}
		return nil
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) || len(dl.Blocked) != 1 || dl.Blocked[0] != (BlockedRank{Rank: 0, Src: 1, Tag: top}) {
		t.Fatalf("err = %v, want a deadlock of rank 0 on (src 1, tag %d)", err, top)
	}
}

func TestRunCollectsBodyError(t *testing.T) {
	m := New(3, newTestModel())
	sentinel := errors.New("boom")
	_, err := m.Run(func(p *Proc) error {
		if p.Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
}

func TestPanicInOneRankUnblocksOthers(t *testing.T) {
	m := New(2, newTestModel())
	_, err := m.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			panic("deliberate")
		}
		p.RecvFloatsInto(0, 9, nil) // never sent; must be released by shutdown
		return nil
	})
	if err == nil {
		t.Fatalf("expected error from panicking rank")
	}
}

func TestDeterministicClocksAcrossRuns(t *testing.T) {
	run := func() []float64 {
		m := New(8, newTestModel())
		res, err := m.Run(func(p *Proc) error {
			// Irregular per-rank work plus a ring shift.
			p.Compute(float64(1000 * (p.Rank()%3 + 1)))
			next := (p.Rank() + 1) % p.Ranks()
			prev := (p.Rank() + p.Ranks() - 1) % p.Ranks()
			p.SendFloatsCopy(next, 0, []float64{float64(p.Rank())}, 8)
			p.RecvFloatsInto(prev, 0, nil)
			p.Compute(500)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Clocks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d clock differs across runs: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestAccounting(t *testing.T) {
	m := New(2, newTestModel())
	res, err := m.Run(func(p *Proc) error {
		p.Account(DynamicsFD, func() { p.Compute(1000) })
		p.Account(Physics, func() { p.Compute(float64(2000 * (p.Rank() + 1))) })
		if got, want := p.Clock(), float64(1000+2000*(p.Rank()+1))*1e-6; math.Abs(got-want) > 1e-15 {
			return fmt.Errorf("clock %g after accounting, want %g", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Accounts[DynamicsFD][0], 1000*1e-6; math.Abs(got-want) > 1e-15 {
		t.Fatalf("dynamics-fd[0] = %g, want %g", got, want)
	}
	if got, want := res.MaxAccount(Physics), 4000*1e-6; math.Abs(got-want) > 1e-15 {
		t.Fatalf("MaxAccount(physics) = %g, want %g", got, want)
	}
	if got := res.Accounts[Physics]; len(got) != 2 || math.Abs(got[0]-2000e-6) > 1e-15 || math.Abs(got[1]-4000e-6) > 1e-15 {
		t.Fatalf("Accounts[physics] = %v, want [0.002 0.004]", got)
	}
	if got := res.Phases(); !reflect.DeepEqual(got, []Phase{DynamicsFD, Physics}) {
		t.Fatalf("Phases() = %v, want [dynamics-fd physics]", got)
	}
}

func TestMaxClock(t *testing.T) {
	r := &Result{Clocks: []float64{1.5, 3.25, 2.0}}
	if got := r.MaxClock(); got != 3.25 {
		t.Fatalf("MaxClock = %g, want 3.25", got)
	}
}

func TestAllRanksActuallyRun(t *testing.T) {
	var count atomic.Int64
	m := New(17, newTestModel())
	if _, err := m.Run(func(p *Proc) error {
		count.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 17 {
		t.Fatalf("ran %d ranks, want 17", count.Load())
	}
}

func TestMessageStatistics(t *testing.T) {
	m := New(3, newTestModel())
	res, err := m.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			p.SendFloatsCopy(1, 0, []float64{1, 2}, 16)
			p.SendFloatsCopy(2, 0, []float64{1}, 8)
			if p.MessagesSent() != 2 || p.BytesSent() != 24 {
				return fmt.Errorf("rank 0 stats %d/%d", p.MessagesSent(), p.BytesSent())
			}
		} else {
			p.RecvFloatsInto(0, 0, nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesSent[0] != 2 || res.BytesSent[0] != 24 {
		t.Fatalf("result stats %v %v", res.MessagesSent, res.BytesSent)
	}
	if res.TotalMessages() != 2 || res.TotalBytes() != 24 {
		t.Fatalf("totals %d %d", res.TotalMessages(), res.TotalBytes())
	}
}

func TestAccountedGetter(t *testing.T) {
	m := New(1, newTestModel())
	_, err := m.Run(func(p *Proc) error {
		p.Account(Filter, func() { p.Compute(100) })
		if got := p.Accounted(Filter); math.Abs(got-100e-6) > 1e-15 {
			return fmt.Errorf("Accounted(filter) = %g, want 1e-4", got)
		}
		if got := p.Accounted(Physics); got != 0 {
			return fmt.Errorf("Accounted(physics) = %g, want 0", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
