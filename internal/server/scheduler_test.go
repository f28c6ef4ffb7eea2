package server

import (
	"sync"
	"testing"
	"time"
)

// Scheduler invariants, table-driven across every policy.  These run under
// -race in CI: the schedulers are the only concurrency seam between the HTTP
// handlers and the worker pool.

func schedJob(seq uint64, class SLOClass, cost float64) *Job {
	return &Job{
		Request:  &Request{Key: "k", Class: class},
		Seq:      seq,
		Cost:     cost,
		enqueued: time.Now(),
	}
}

func popAll(t *testing.T, s *Scheduler, n int) []*Job {
	t.Helper()
	out := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		j, ok := s.Pop()
		if !ok {
			t.Fatalf("Pop %d/%d reported drained", i, n)
		}
		out = append(out, j)
	}
	return out
}

func TestSchedulerNamesConstructible(t *testing.T) {
	for _, name := range SchedulerNames() {
		s, err := NewScheduler(name, 4)
		if err != nil {
			t.Fatalf("NewScheduler(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("NewScheduler(%q).Name() = %q", name, s.Name())
		}
		s.Close()
	}
	if s, err := NewScheduler("", 4); err != nil || s.Name() != "fcfs" {
		t.Fatalf("empty scheduler name not fcfs: %v %v", s, err)
	}
	if _, err := NewScheduler("lifo", 4); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestFCFSPreservesArrivalOrder(t *testing.T) {
	s, err := NewScheduler("fcfs", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// fcfs must be pure FIFO regardless of class or cost.
	for i := uint64(1); i <= 8; i++ {
		class := Interactive
		if i%2 == 0 {
			class = Batch
		}
		if !s.Push(schedJob(i, class, float64(100-i))) {
			t.Fatalf("push %d shed", i)
		}
	}
	for i, j := range popAll(t, s, 8) {
		if j.Seq != uint64(i+1) {
			t.Fatalf("fcfs popped seq %d at position %d", j.Seq, i)
		}
	}
}

func TestPriorityNeverInvertsClasses(t *testing.T) {
	s, err := NewScheduler("priority", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// All jobs pushed before any pop ("equal arrival" from the scheduler's
	// point of view): every interactive job must pop before every batch job,
	// and within a class arrival order holds.
	jobs := []*Job{
		schedJob(1, Batch, 5),
		schedJob(2, Interactive, 50),
		schedJob(3, Batch, 1),
		schedJob(4, Interactive, 50),
		schedJob(5, Interactive, 9),
	}
	for _, j := range jobs {
		if !s.Push(j) {
			t.Fatalf("push %d shed", j.Seq)
		}
	}
	got := popAll(t, s, len(jobs))
	// Interactive before batch always; within a class, arrival.  Cost never
	// matters to this policy.
	want := []uint64{2, 4, 5, 1, 3}
	for i, j := range got {
		if j.Seq != want[i] {
			seqs := make([]uint64, len(got))
			for k, g := range got {
				seqs[k] = g.Seq
			}
			t.Fatalf("priority pop order %v, want %v", seqs, want)
		}
	}
}

func TestSJFDeterministicUnderCostTies(t *testing.T) {
	// Equal costs must pop in admission order, every time.
	for trial := 0; trial < 5; trial++ {
		s, err := NewScheduler("sjf", 16)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= 6; i++ {
			if !s.Push(schedJob(i, Batch, 7.5)) {
				t.Fatalf("push %d shed", i)
			}
		}
		for i, j := range popAll(t, s, 6) {
			if j.Seq != uint64(i+1) {
				t.Fatalf("trial %d: sjf tie-break popped seq %d at position %d", trial, j.Seq, i)
			}
		}
		s.Close()
	}
}

func TestSJFOrdersByCost(t *testing.T) {
	s, err := NewScheduler("sjf", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	costs := []float64{9, 1, 4, 16, 0.5}
	for i, c := range costs {
		if !s.Push(schedJob(uint64(i+1), Batch, c)) {
			t.Fatalf("push %d shed", i+1)
		}
	}
	prev := -1.0
	for i, j := range popAll(t, s, len(costs)) {
		if j.Cost < prev {
			t.Fatalf("cost inversion at position %d: %g after %g", i, j.Cost, prev)
		}
		prev = j.Cost
	}
}

func TestSchedulerShedsAtCapacity(t *testing.T) {
	for _, name := range SchedulerNames() {
		s, err := NewScheduler(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Push(schedJob(1, Batch, 1)) || !s.Push(schedJob(2, Batch, 1)) {
			t.Fatalf("%s shed under capacity", name)
		}
		if s.Push(schedJob(3, Batch, 1)) {
			t.Fatalf("%s accepted past capacity", name)
		}
		if s.Depth() != 2 {
			t.Fatalf("%s depth %d, want 2", name, s.Depth())
		}
		s.Close()
		if s.Push(schedJob(4, Batch, 1)) {
			t.Fatalf("%s accepted after close", name)
		}
	}
}

func TestSchedulerDrainCompletesAcceptedJobs(t *testing.T) {
	// Under every policy: concurrent pushers and poppers, then Close; every
	// accepted job must be popped exactly once and Pop must then report
	// drained.  This is the shape the server relies on during Drain.
	for _, name := range SchedulerNames() {
		t.Run(name, func(t *testing.T) {
			s, err := NewScheduler(name, 1024)
			if err != nil {
				t.Fatal(err)
			}
			const pushers, perPusher, poppers = 4, 50, 3
			var accepted sync.Map
			var pushWG sync.WaitGroup
			for p := 0; p < pushers; p++ {
				pushWG.Add(1)
				go func(p int) {
					defer pushWG.Done()
					for i := 0; i < perPusher; i++ {
						seq := uint64(p*perPusher + i + 1)
						if s.Push(schedJob(seq, SLOClass(i%2), float64(i))) {
							accepted.Store(seq, true)
						}
					}
				}(p)
			}
			popped := make(chan uint64, pushers*perPusher)
			var popWG sync.WaitGroup
			for p := 0; p < poppers; p++ {
				popWG.Add(1)
				go func() {
					defer popWG.Done()
					for {
						j, ok := s.Pop()
						if !ok {
							return
						}
						popped <- j.Seq
					}
				}()
			}
			pushWG.Wait()
			s.Close()
			popWG.Wait()
			close(popped)
			seen := make(map[uint64]int)
			for seq := range popped {
				seen[seq]++
			}
			accepted.Range(func(k, _ any) bool {
				if seen[k.(uint64)] != 1 {
					t.Errorf("%s: accepted seq %d popped %d times", name, k, seen[k.(uint64)])
				}
				delete(seen, k.(uint64))
				return true
			})
			for seq := range seen {
				t.Errorf("%s: popped seq %d that was never accepted", name, seq)
			}
			if _, ok := s.Pop(); ok {
				t.Fatalf("%s: Pop returned a job after drain", name)
			}
		})
	}
}

func TestClassByName(t *testing.T) {
	cases := []struct {
		name  string
		want  SLOClass
		valid bool
	}{
		{"", Batch, true},
		{"interactive", Interactive, true},
		{"batch", Batch, true},
		{"bulk", 0, false},
		{"high", 0, false},
		{"INTERACTIVE", 0, false},
	}
	for _, tc := range cases {
		got, ok := ClassByName(tc.name)
		if ok != tc.valid || (ok && got != tc.want) {
			t.Fatalf("ClassByName(%q) = %v, %v; want %v, %v", tc.name, got, ok, tc.want, tc.valid)
		}
	}
	if Interactive.String() != "interactive" || Batch.String() != "batch" {
		t.Fatal("SLOClass names wrong")
	}
	if SLOClass(9).String() != "invalid" {
		t.Fatal("out-of-range SLOClass name")
	}
}
