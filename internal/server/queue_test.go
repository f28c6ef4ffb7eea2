package server

import "testing"

// The bounded-queue contract, driven through the default (fcfs) policy.

func namedJob(name string, seq uint64) *Job {
	return &Job{Request: &Request{Key: name}, Seq: seq}
}

func newQueue(t *testing.T, capacity int) *Scheduler {
	t.Helper()
	q, err := NewScheduler("", capacity)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestQueueShedsWhenFull(t *testing.T) {
	q := newQueue(t, 2)
	if !q.Push(namedJob("a", 1)) || !q.Push(namedJob("b", 2)) {
		t.Fatal("pushes within capacity failed")
	}
	if q.Push(namedJob("c", 3)) {
		t.Error("push beyond capacity succeeded")
	}
	if d := q.Depth(); d != 2 {
		t.Errorf("depth = %d, want 2", d)
	}
	if j, ok := q.Pop(); !ok || j.Key != "a" {
		t.Errorf("pop = %v, want a", j)
	}
	// A slot freed: admission works again.
	if !q.Push(namedJob("d", 4)) {
		t.Error("push after pop failed")
	}
}

func TestQueueCloseStopsAdmissionKeepsDraining(t *testing.T) {
	q := newQueue(t, 4)
	q.Push(namedJob("a", 1))
	q.Close()
	if q.Push(namedJob("b", 2)) {
		t.Error("push after close succeeded")
	}
	if j, ok := q.Pop(); !ok || j.Key != "a" {
		t.Errorf("pop after close = %v, want the already-accepted job", j)
	}
	if _, ok := q.Pop(); ok {
		t.Error("empty closed queue still popping")
	}
}

func TestQueuePopBlocksUntilPush(t *testing.T) {
	q := newQueue(t, 4)
	got := make(chan string, 1)
	go func() {
		j, ok := q.Pop()
		if !ok {
			got <- "<closed>"
			return
		}
		got <- j.Key
	}()
	q.Push(namedJob("wake", 1))
	if k := <-got; k != "wake" {
		t.Fatalf("pop woke with %q", k)
	}
}
