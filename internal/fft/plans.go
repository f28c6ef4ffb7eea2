package fft

import "agcm/internal/fillcache"

// Tables are shared through a fill-only cache of at most maxSharedTables
// lengths of at most maxSharedLen points.  A length that does not fit gets
// tables of its own, private to the one plan.
const (
	maxSharedTables = 16
	maxSharedLen    = 1 << 12
)

var shared = fillcache.New[int, *tables](maxSharedTables)

// tablesFor returns the tables for length n.
func tablesFor(n int) *tables {
	return shared.Get(n, n <= maxSharedLen, func(bool) *tables { return newTables(n) })
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
