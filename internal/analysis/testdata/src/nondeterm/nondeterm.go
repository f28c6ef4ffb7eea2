// Package nondeterm is the analysistest fixture for the nondeterm analyzer:
// wall-clock time, unseeded randomness, and order-sensitive map iteration.
package nondeterm

import (
	"math/rand"
	"sort"
	"time"
)

// WallClock exercises the time package checks.
func WallClock() float64 {
	start := time.Now()            // want `time\.Now observes the wall clock`
	elapsed := time.Since(start)   // want `time\.Since observes the wall clock`
	time.Sleep(time.Millisecond)   // want `time\.Sleep observes the wall clock`
	deadline := time.Unix(1996, 0) // time.Unix is pure: not flagged
	_ = deadline
	return elapsed.Seconds()
}

// GlobalRand exercises the math/rand global-source checks.
func GlobalRand(seed int64) float64 {
	x := rand.Float64()                // want `rand\.Float64 uses the global random source`
	rand.Shuffle(3, func(i, j int) {}) // want `rand\.Shuffle uses the global random source`
	// The seeded per-run flow is the approved pattern.
	rng := rand.New(rand.NewSource(seed))
	return x + rng.Float64()
}

// MapOrder exercises the range-over-map checks.
func MapOrder(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m { // want `range over map m: iteration order is nondeterministic`
		total += v
	}

	// Sorted-keys idiom: collect then sort — accepted without annotation.
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		total += m[k]
	}

	// Counting iterations observes no order.
	n := 0
	for range m {
		n++
	}

	// Order-insensitive by keyed writes, asserted by annotation.
	squares := make(map[string]float64, len(m))
	for k, v := range m { //lint:allow nondeterm writes are keyed by the ranged key, order cannot be observed
		squares[k] = v * v
	}
	_ = squares
	return total + float64(n)
}

// SortedViaSlice accepts sort.Slice as the sorting step of the idiom.
func SortedViaSlice(m map[int]string) []int {
	var ids []int
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// CollectWithoutSort collects keys but never sorts them: flagged.
func CollectWithoutSort(m map[int]string) []int {
	var ids []int
	for id := range m { // want `range over map m: iteration order is nondeterministic`
		ids = append(ids, id)
	}
	return ids
}

// AllowOnLineAbove suppresses via a directive on the preceding line.
func AllowOnLineAbove(m map[int]int) map[int]int {
	doubled := make(map[int]int, len(m))
	//lint:allow nondeterm keyed writes, order cannot be observed
	for k, v := range m {
		doubled[k] = 2 * v
	}
	return doubled
}

// linkRegistry is a packed-pair link index: a map for O(1) lookup plus an
// ordered slice as the source of truth.  Its
// consistency check may range the map with an annotation (each iteration
// only cross-checks its own entry), but routing or reporting must never
// derive results from map order.
type linkRegistry struct {
	ids  map[uint64]int
	ends [][2]int
}

// CheckRegistry is the approved pattern: an annotated order-insensitive
// cross-check of the map view against the slice view.
func CheckRegistry(r *linkRegistry) {
	//lint:allow nondeterm each iteration cross-checks only its own ranged entry against the ends slice
	for k, id := range r.ids {
		if r.ends[id] != [2]int{int(k >> 32), int(uint32(k))} {
			panic("registry mismatch")
		}
	}
}

// LinkIDsFromMap derives an ordered result from map iteration: flagged.
func LinkIDsFromMap(r *linkRegistry) []int {
	var ids []int
	for _, id := range r.ids { // want `range over map r\.ids: iteration order is nondeterministic`
		ids = append(ids, id)
	}
	return ids
}

// LinkBytesSum accumulates floats over map order without an annotation:
// flagged, because float addition order changes the bits.
func LinkBytesSum(busy map[int]float64) float64 {
	total := 0.0
	for _, v := range busy { // want `range over map busy: iteration order is nondeterministic`
		total += v
	}
	return total
}
