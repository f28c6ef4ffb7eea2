package sim

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

type sharedKey struct{ name string }

// TestSharedBuildsOncePerMachine has the 240 ranks of one Run ask for one
// key at once: it is built once and every rank reads the one value.
func TestSharedBuildsOncePerMachine(t *testing.T) {
	const ranks = 240
	var builds atomic.Int32
	got := make([]*int, ranks)
	_, err := New(ranks, newTestModel()).Run(func(p *Proc) error {
		got[p.Rank()] = Shared(p, sharedKey{"k"}, func() *int { builds.Add(1); return new(int) })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("built %d times", n)
	}
	for r, v := range got {
		if v != got[0] {
			t.Fatalf("rank %d read a value of its own", r)
		}
	}
}

// TestSharedNestedBuild has every rank ask for a key whose build asks for
// another, which half of the ranks also ask for directly: neither deadlocks,
// and the outer value holds the inner one.
func TestSharedNestedBuild(t *testing.T) {
	type outer struct{ inner *int }
	const ranks = 64
	got := make([]*outer, ranks)
	_, err := New(ranks, newTestModel()).Run(func(p *Proc) error {
		inner := func() *int { return new(int) }
		if p.Rank()%2 == 1 {
			Shared(p, sharedKey{"inner"}, inner)
		}
		got[p.Rank()] = Shared(p, sharedKey{"outer"}, func() *outer {
			return &outer{Shared(p, sharedKey{"inner"}, inner)}
		})
		if got[p.Rank()].inner != Shared(p, sharedKey{"inner"}, inner) {
			return errors.New("the outer value holds another inner value")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range got {
		if v != got[0] {
			t.Fatalf("rank %d read an outer value of its own", r)
		}
	}
}

// TestSharedMachinesDoNotShare runs two machines at once that ask for the
// same key: each builds and reads its own value.
func TestSharedMachinesDoNotShare(t *testing.T) {
	const ranks = 16
	got := make([][]*int, 2)
	var wg sync.WaitGroup
	for m := range got {
		got[m] = make([]*int, ranks)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := New(ranks, newTestModel()).Run(func(p *Proc) error {
				got[m][p.Rank()] = Shared(p, sharedKey{"k"}, func() *int { return new(int) })
				return nil
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for m := range got {
		for r, v := range got[m] {
			if v != got[m][0] {
				t.Fatalf("machine %d: rank %d read a value of its own", m, r)
			}
		}
	}
	if got[0][0] == got[1][0] {
		t.Fatal("two machines read one value")
	}
}

// TestSharedKeptAcrossRuns: a second Run on the machine reads the first
// Run's value without building it again, and a key of another type with the
// same underlying value is another key.
func TestSharedKeptAcrossRuns(t *testing.T) {
	type otherKey struct{ name string }
	m := New(4, newTestModel())
	builds := 0
	var mu sync.Mutex
	build := func() *int {
		mu.Lock()
		defer mu.Unlock()
		builds++
		return new(int)
	}
	var first, second, other *int
	for run := range 2 {
		if _, err := m.Run(func(p *Proc) error {
			v := Shared(p, sharedKey{"k"}, build)
			if p.Rank() == 0 {
				if run == 0 {
					first = v
				} else {
					second, other = v, Shared(p, otherKey{"k"}, build)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if first != second || builds != 2 || other == first {
		t.Fatalf("second Run read the first Run's value: %v; builds %d, want 2; other key distinct: %v",
			first == second, builds, other != first)
	}
}

// TestSharedPanicStoresNothing: a build that panics fails its Run and leaves
// no value behind, so the next caller builds again and reads a real value.
func TestSharedPanicStoresNothing(t *testing.T) {
	m := New(1, newTestModel())
	_, err := m.Run(func(p *Proc) error {
		Shared(p, sharedKey{"k"}, func() *int { panic("build failed") })
		return nil
	})
	if err == nil {
		t.Fatal("a panicking build did not fail its Run")
	}
	var got *int
	if _, err := m.Run(func(p *Proc) error {
		got = Shared(p, sharedKey{"k"}, func() *int { v := 7; return &v })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got == nil || *got != 7 {
		t.Fatal("after a panicking build the next caller did not build its value")
	}
}
