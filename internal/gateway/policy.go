package gateway

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// A policy ranks the cluster's backends for one request.  It returns every
// backend index in preference order; the gateway walks the order skipping
// ineligible members (breaker open, not ready, in a Retry-After cooldown),
// so spillover under failure is the same mechanism as primary routing.
type policy interface {
	Name() string
	// Order ranks all of backends for the request with the given job key.
	Order(key string, backends []*backend) []int
}

// PolicyNames lists the routing policies, in the order they are documented.
func PolicyNames() []string { return []string{"round-robin", "least-inflight", "key-affinity"} }

// policyByName builds the named routing policy.
func policyByName(name string) (policy, bool) {
	switch name {
	case "", "key-affinity":
		return &keyAffinity{}, true
	case "round-robin":
		return &roundRobin{}, true
	case "least-inflight":
		return &leastInflight{}, true
	}
	return nil, false
}

// roundRobin rotates the starting backend per request, ignoring the key:
// even spread, no cache locality.
type roundRobin struct {
	next atomic.Uint64
}

func (p *roundRobin) Name() string { return "round-robin" }

func (p *roundRobin) Order(key string, backends []*backend) []int {
	n := len(backends)
	start := int((p.next.Add(1) - 1) % uint64(n))
	order := make([]int, n)
	for i := range order {
		order[i] = (start + i) % n
	}
	return order
}

// leastInflight prefers the backend with the fewest requests currently in
// flight (ties broken by index, so the order is deterministic for a given
// load snapshot).
type leastInflight struct{}

func (p *leastInflight) Name() string { return "least-inflight" }

func (p *leastInflight) Order(key string, backends []*backend) []int {
	order := make([]int, len(backends))
	loads := make([]int64, len(backends))
	for i, b := range backends {
		order[i], loads[i] = i, b.inflight.Load()
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(loads[a], loads[b]) })
	return order
}

// keyAffinity is rendezvous (highest-random-weight) hashing on the job key:
// every gateway ranks backends for a key identically, so repeat requests
// for a config concentrate on one shard and its cache gets hot, while the
// runner-up order doubles as the spillover sequence when that shard is
// unhealthy.  Unlike modulo hashing, removing or re-adding one backend only
// moves the keys that lived on it.
type keyAffinity struct{}

func (p *keyAffinity) Name() string { return "key-affinity" }

// Order ranks by descending score; the stable sort keeps equal scores in
// index order.
func (p *keyAffinity) Order(key string, backends []*backend) []int {
	order := make([]int, len(backends))
	scores := make([]uint64, len(backends))
	for i, b := range backends {
		order[i], scores[i] = i, rendezvousScore(b.id, key)
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(scores[b], scores[a]) })
	return order
}

// rendezvousScore hashes (backend ID, job key) with FNV-1a 64 and a
// murmur-style finalizer.  The concatenation is separated so ("ab","c") and
// ("a","bc") differ; the finalizer matters because raw FNV is close to
// monotone in its running state for short inputs, which would rank backends
// in nearly the same order for every key and defeat the load spread.
func rendezvousScore(backendID, key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(backendID); i++ {
		h ^= uint64(backendID[i])
		h *= prime64
	}
	h ^= 0xff // separator outside both alphabets
	h *= prime64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
