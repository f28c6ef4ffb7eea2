package gateway

import (
	"sync/atomic"
	"time"
)

// backend is one agcmd cluster member as the gateway sees it: its address,
// its circuit breaker, and the passive state routing consults — in-flight
// count, the last active-probe verdict, and the Retry-After cooldown.
type backend struct {
	// id is the stable identity used in metrics, events, and rendezvous
	// hashing.  It is the configured base URL, so every gateway given the
	// same backend list ranks keys identically.
	id     string
	url    string // base URL without trailing slash
	runURL string // url + "/v1/run"

	breaker  *breaker
	inflight atomic.Int64
	// ready is the latest /readyz verdict.  It starts true so a fresh
	// gateway routes before the first probe round completes; the prober
	// corrects it within one interval.
	ready atomic.Bool
	// notBefore is a unix-nano cooldown deadline set from a backend's
	// Retry-After: the backend told us when to come back, so routing skips
	// it until then (unless nothing else is eligible).
	notBefore atomic.Int64
}

func newBackend(id, url string, br *breaker) *backend {
	b := &backend{id: id, url: url, runURL: url + "/v1/run", breaker: br}
	b.ready.Store(true)
	return b
}

// coolDown records a Retry-After hint: skip this backend until now+d.
func (b *backend) coolDown(now time.Time, d time.Duration) {
	b.notBefore.Store(now.Add(d).UnixNano())
}

// inCooldown reports whether the Retry-After window is still running.
func (b *backend) inCooldown(now time.Time) bool {
	return now.UnixNano() < b.notBefore.Load()
}

// eligible reports whether routing should offer this backend traffic right
// now, without claiming the breaker's probe slot (Allow does that at send
// time).
func (b *backend) eligible(now time.Time) bool {
	if !b.ready.Load() || b.inCooldown(now) {
		return false
	}
	return b.breaker.State() != BreakerOpen
}
