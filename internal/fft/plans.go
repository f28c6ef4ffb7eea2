package fft

import "sync"

// Tables are shared process-wide, since plans are also built outside any
// simulated machine: a map of at most maxSharedTables lengths of at most
// maxSharedLen points.  A length that does not fit gets tables of its own,
// private to the one plan.
const (
	maxSharedTables = 16
	maxSharedLen    = 1 << 12
)

var (
	sharedMu sync.Mutex
	shared   = make(map[int]*tables, maxSharedTables) // guarded by sharedMu
)

// tablesFor returns the tables for length n, building them under the lock
// on first use so that plans starting together build them once.
func tablesFor(n int) *tables {
	if n > maxSharedLen {
		return newTables(n)
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	t := shared[n]
	if t == nil {
		t = newTables(n)
		if len(shared) < maxSharedTables {
			shared[n] = t
		}
	}
	return t
}

// GetPlan, PutPlan, GetRealPlan and PutRealPlan are what is left of a plan
// pool that shared tables made pointless; benchmark/probes.go still calls
// them.  New code calls NewPlan and NewRealPlan and drops the plan when done.

// GetPlan returns NewPlan(n).
func GetPlan(n int) *Plan { return NewPlan(n) }

// PutPlan does nothing.
func PutPlan(*Plan) {}

// GetRealPlan returns NewRealPlan(n).
func GetRealPlan(n int) *RealPlan { return NewRealPlan(n) }

// PutRealPlan does nothing.
func PutRealPlan(*RealPlan) {}
