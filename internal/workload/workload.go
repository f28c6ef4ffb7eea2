// Package workload is the serving stack's workload engine: it turns a
// declarative, seeded specification into a bit-deterministic schedule of
// simulation requests — who asks for what, when, and under which service
// class — so every serving benchmark measures a workload that is realistic,
// reproducible, and impossible to game by tuning against a fixed mix.
//
// The spec (Spec, canonicalized like core.Config) describes multi-client
// mixes: Poisson/Gamma/Weibull interarrival processes, diurnal rate
// modulation, Zipf-distributed config popularity (driving realistic
// cache-hit ratios), and per-request SLO class (interactive/batch) with
// deadline.  Generate expands a spec into a Schedule whose
// request bodies are exact POST /v1/run payloads; the same spec always
// yields the same bytes, so the spec file is the one replayable artifact:
// dispatching it again replays the run, and Schedule.Hash proves the
// request sequence was the same.
//
// Simulate closes the loop on the server side: a deterministic virtual-time
// queueing model that runs a schedule through the pluggable scheduler
// policies (FCFS, priority, shortest-job-first on the machine cost model's
// predicted run time) and reports per-class latency and fairness — the
// model-driven scheduling question the paper asks of the AGCM, asked of the
// serving stack.
//
// Everything here is pure computation on seeded randomness: no wall clock,
// no goroutines, no I/O.
// Pacing a schedule against a live daemon is the load generator's job
// (cmd/agcmload).
package workload

import (
	"fmt"
	"sort"
)

// Request is one scheduled simulation request: the exact POST /v1/run body
// plus the metadata the generator decided it from.  Body is authoritative —
// replaying a schedule means sending each Body verbatim at its offset — and
// the metadata fields let clients and simulators tally per-class outcomes
// without re-parsing JSON.
type Request struct {
	// Seq is the request's position in arrival order, starting at 0.
	Seq int `json:"seq"`
	// AtUS is the arrival offset from the schedule's start in microseconds.
	AtUS int64 `json:"at_us"`
	// Class is the SLO class ("interactive" or "batch").
	Class string `json:"class"`
	// PoolIndex identifies which of the class's distinct configs this
	// request asks for; (Class, PoolIndex) is the request's identity for
	// per-key sequence comparisons.
	PoolIndex int `json:"pool_index"`
	// Steps is the measured step count requested.
	Steps int `json:"steps"`
	// TimeoutMS is the per-request deadline (0 = server default).
	TimeoutMS int `json:"timeout_ms"`
	// Body is the exact request body to POST.
	Body string `json:"body"`
}

// Key returns the request's config identity: requests with equal keys ask
// for byte-identical simulations.
func (r Request) Key() string {
	return fmt.Sprintf("%s/%d", r.Class, r.PoolIndex)
}

// Schedule is a fully expanded workload: the spec it came from and the
// requests in arrival order.  A Schedule is a pure function of its Spec —
// Generate is deterministic — and Hash is the content address of its
// requests.
type Schedule struct {
	Spec     Spec
	Requests []Request
}

// Classes returns the distinct class names appearing in the schedule, in
// sorted order — the deterministic iteration order for per-class reports.
func (s *Schedule) Classes() []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range s.Requests {
		if !seen[r.Class] {
			seen[r.Class] = true
			out = append(out, r.Class)
		}
	}
	sort.Strings(out)
	return out
}
