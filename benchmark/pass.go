package main

import (
	"fmt"

	"agcm/internal/core"
)

// options is what one pass over a workload is told.
type options struct {
	seed    int64
	seconds float64 // length of the timed phase
	// quick replaces the timed phase by a handful of ops: the tier-1 test,
	// and the passes a traced run makes over the workloads it was not asked
	// for (their layers' metrics are still reported).
	quick   bool
	setups  int     // times to set up; setup_s is the median
	tr      *tracer // nil: tracing off
	scratch string  // directory for the disk tier's temporary files
	clock   *hostClock
}

// pass is what one pass over a workload measured.
type pass struct {
	// Times are wall seconds at nominal host speed (see hostspeed.go); the
	// raw fields keep the plain wall seconds of the same intervals.
	setupS    []float64 // per set-up
	ops       []float64 // per op, tracing off
	tracedOps []float64 // per op under spans (traced run only)
	wallS     float64   // the timed phase's ops or slices, summed
	rawSetupS []float64
	rawOps    []float64
	rawWallS  float64
	alloc     allocCounter
	attempted int
	failed    int
	failures  []string // the first few reasons
	notes     []string
	// layer holds the per-layer metrics this pass owns (traced run only).
	layer map[string]float64
	// last is the final op's report (model workloads).
	last *core.Report
}

func newPass() *pass { return &pass{layer: make(map[string]float64)} }

// fail counts one failed op.
func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// timed adds one lap of the timed phase: its ops' wall seconds and the lap's
// own, scaled by the host-speed factor.
func (p *pass) timed(ops []float64, traced bool, wall, speed float64) {
	p.wallS += wall * speed
	p.rawWallS += wall
	for _, op := range ops {
		if traced {
			p.tracedOps = append(p.tracedOps, op*speed)
		} else {
			p.ops = append(p.ops, op*speed)
			p.rawOps = append(p.rawOps, op)
		}
	}
}

// rawNote reports the plain wall-clock numbers beside the normalised ones.
func (p *pass) rawNote() string {
	return fmt.Sprintf("raw wall clock: op p50 %.4g ms, %.4g ops/s, set-up %.4g s; host-speed factor %.3f over the timed phase",
		median(p.rawOps)*1e3, float64(len(p.rawOps)+len(p.tracedOps))/p.rawWallS, median(p.rawSetupS), p.wallS/p.rawWallS)
}

// endToEnd derives the end-to-end metrics from an untraced pass.
func (p *pass) endToEnd() map[string]float64 {
	n := float64(len(p.ops))
	return map[string]float64{
		"op_ms_p50":       median(p.ops) * 1e3,
		"ops_per_s":       n / p.wallS,
		"allocs_per_op":   float64(p.alloc.mallocs) / n,
		"alloc_kb_per_op": float64(p.alloc.bytes) / 1024 / n,
		"setup_s":         median(p.setupS),
	}
}

// runWorkload dispatches one pass.
func runWorkload(name string, o options) (*pass, error) {
	switch name {
	case SingleRank, Mesh240FFT, Mesh240Conv:
		return runModel(name, o)
	case ServeCold, ServeHot:
		return runServe(name, o)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
