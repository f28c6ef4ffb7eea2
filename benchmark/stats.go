package main

import (
	"runtime"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of v (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// perCall times fn in batches for about budget and returns the median
// batch's nanoseconds per call, so one descheduled batch cannot move the
// result.
func perCall(budget time.Duration, fn func()) float64 {
	const batches = 9
	start := time.Now()
	fn()
	once := time.Since(start)
	n := 1
	if once > 0 {
		n = int(budget / batches / once)
	}
	if n < 1 {
		n = 1
	}
	per := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(n))
		if time.Since(start) > 2*budget {
			break
		}
	}
	return median(per)
}

// allocCounter reads the process-wide allocation counters.
type allocCounter struct{ mallocs, bytes uint64 }

func readAllocs() allocCounter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocCounter{m.Mallocs, m.TotalAlloc}
}

func (a allocCounter) since(b allocCounter) allocCounter {
	return allocCounter{a.mallocs - b.mallocs, a.bytes - b.bytes}
}
