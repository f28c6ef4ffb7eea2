package fft

import "sync"

// Tables are shared through a cache that only ever fills: agcmd runs grids of
// whatever size a request names, so the cache holds at most maxSharedTables
// lengths of at most maxSharedLen points and never evicts.  A length that
// does not fit gets tables of its own, private to the one plan.
const (
	maxSharedTables = 16
	maxSharedLen    = 1 << 12
)

var shared = struct {
	sync.Mutex
	byLen map[int]*tables
}{byLen: make(map[int]*tables)}

// tablesFor returns the tables for length n, building them under the lock on
// first use so that ranks starting together build them once.
func tablesFor(n int) *tables {
	if n > maxSharedLen {
		return newTables(n)
	}
	shared.Lock()
	defer shared.Unlock()
	t := shared.byLen[n]
	if t == nil {
		t = newTables(n)
		if len(shared.byLen) < maxSharedTables {
			shared.byLen[n] = t
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
