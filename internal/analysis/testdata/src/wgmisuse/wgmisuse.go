// Package wgmisuse is the analysistest fixture for the wgmisuse analyzer:
// WaitGroup.Add inside the spawned goroutine and Done not deferred.
package wgmisuse

import "sync"

// AddInside races Wait: the waiter can observe the counter before the
// goroutine has run its Add.
func AddInside(wg *sync.WaitGroup) {
	go func() {
		wg.Add(1) // want `WaitGroup\.Add inside the spawned goroutine races Wait`
		defer wg.Done()
	}()
	wg.Wait()
}

// DoneNotDeferred leaves Wait stuck if work panics.
func DoneNotDeferred(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		work()
		wg.Done() // want `WaitGroup\.Done is not deferred`
	}()
}

// Correct is the joinable shape: Add before go, Done deferred inside.
func Correct(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
}

// AllowedDone is a documented phase barrier: Done deliberately marks a
// mid-body milestone.
func AllowedDone(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		work()
		//lint:allow wgmisuse phase barrier: Done marks the warm-up milestone, not goroutine exit
		wg.Done()
	}()
}

func work() {}
