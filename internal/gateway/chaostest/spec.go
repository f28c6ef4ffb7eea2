// Package chaostest is the gateway's fault-injection proving ground: a
// reverse proxy that sits between the gateway and a real agcmd backend and
// misbehaves on a deterministic, seeded schedule — dropped connections,
// injected delays, 5xx bursts, mid-body connection resets, and slow bodies.
//
// The schedule mirrors internal/fault's design contract: every decision is
// a pure function of the spec's seed and the request sequence number, never
// of wall-clock time, so a chaos scenario is reproducible and a failing
// test names the exact faults it injected.  The clause grammar is the same
// -fault-spec syntax (semicolon-separated clauses, kind:key=value
// parameters, a bare seed=N clause):
//
//	seed=42;delay:prob=0.2,ms=50;reset:prob=0.05;burst5xx:every=20,len=3
//	drop:prob=0.02;slowbody:prob=0.1,chunk=64,ms=2
package chaostest

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"agcm/internal/fault"
)

// Delay holds a request for MS milliseconds before proxying it.
type Delay struct {
	Prob float64 // per-request probability in [0, 1]
	MS   int     // added latency, milliseconds
}

// Drop closes the client connection without writing a byte: the gateway
// sees a transport error before any response.
type Drop struct {
	Prob float64
}

// Reset proxies the backend's response but severs the connection midway
// through the body: headers and a prefix arrive, then the socket dies.
type Reset struct {
	Prob float64
}

// Burst5xx short-circuits requests with an error status in periodic
// windows: of every Every requests, the first Len are answered Code
// without reaching the backend.
type Burst5xx struct {
	Every int
	Len   int
	Code  int // default 503
}

// SlowBody trickles the response body out Chunk bytes at a time with MS
// milliseconds between chunks.
type SlowBody struct {
	Prob  float64
	Chunk int // bytes per write, default 64
	MS    int // pause between chunks, milliseconds
}

// Spec is one backend's complete misbehavior scenario.  The zero value
// injects nothing (a transparent proxy).
type Spec struct {
	Seed     uint64
	Delay    *Delay
	Drop     *Drop
	Reset    *Reset
	Burst    *Burst5xx
	SlowBody *SlowBody
}

// Validate checks the scenario's parameters.
func (s *Spec) Validate() error {
	checkProb := func(kind string, p float64) error {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("chaostest: %s probability %g outside [0, 1]", kind, p)
		}
		return nil
	}
	if d := s.Delay; d != nil {
		if err := checkProb("delay", d.Prob); err != nil {
			return err
		}
		if d.MS <= 0 {
			return fmt.Errorf("chaostest: delay ms %d must be positive", d.MS)
		}
	}
	if d := s.Drop; d != nil {
		if err := checkProb("drop", d.Prob); err != nil {
			return err
		}
	}
	if r := s.Reset; r != nil {
		if err := checkProb("reset", r.Prob); err != nil {
			return err
		}
	}
	if b := s.Burst; b != nil {
		if b.Every <= 0 || b.Len <= 0 || b.Len > b.Every {
			return fmt.Errorf("chaostest: burst5xx window len=%d every=%d invalid", b.Len, b.Every)
		}
		if b.Code < 500 || b.Code > 599 {
			return fmt.Errorf("chaostest: burst5xx code %d is not a 5xx status", b.Code)
		}
	}
	if sb := s.SlowBody; sb != nil {
		if err := checkProb("slowbody", sb.Prob); err != nil {
			return err
		}
		if sb.Chunk <= 0 || sb.MS < 0 {
			return fmt.Errorf("chaostest: slowbody chunk=%d ms=%d invalid", sb.Chunk, sb.MS)
		}
	}
	return nil
}

// String renders the scenario in the clause syntax accepted by Parse.
func (s *Spec) String() string {
	var parts []string
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	if d := s.Delay; d != nil {
		parts = append(parts, fmt.Sprintf("delay:prob=%g,ms=%d", d.Prob, d.MS))
	}
	if d := s.Drop; d != nil {
		parts = append(parts, fmt.Sprintf("drop:prob=%g", d.Prob))
	}
	if r := s.Reset; r != nil {
		parts = append(parts, fmt.Sprintf("reset:prob=%g", r.Prob))
	}
	if b := s.Burst; b != nil {
		parts = append(parts, fmt.Sprintf("burst5xx:every=%d,len=%d,code=%d", b.Every, b.Len, b.Code))
	}
	if sb := s.SlowBody; sb != nil {
		parts = append(parts, fmt.Sprintf("slowbody:prob=%g,chunk=%d,ms=%d", sb.Prob, sb.Chunk, sb.MS))
	}
	return strings.Join(parts, ";")
}

// Parse builds a Spec from the clause syntax.  An empty string yields a
// transparent proxy.
func Parse(s string) (*Spec, error) {
	spec := &Spec{}
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, params := clause, ""
		if i := strings.Index(clause, ":"); i >= 0 {
			kind, params = clause[:i], clause[i+1:]
		}
		kv, err := fault.ParseParams(params)
		if err != nil {
			return nil, fmt.Errorf("chaostest: clause %q: %w", clause, err)
		}
		switch {
		case strings.HasPrefix(kind, "seed="):
			v, err := strconv.ParseUint(strings.TrimPrefix(kind, "seed="), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaostest: bad seed in %q", clause)
			}
			spec.Seed = v
		case kind == "delay":
			d := &Delay{MS: 10}
			if err := fault.Assign(kv, map[string]any{"prob": &d.Prob, "ms": &d.MS}); err != nil {
				return nil, fmt.Errorf("chaostest: clause %q: %w", clause, err)
			}
			spec.Delay = d
		case kind == "drop":
			d := &Drop{}
			if err := fault.Assign(kv, map[string]any{"prob": &d.Prob}); err != nil {
				return nil, fmt.Errorf("chaostest: clause %q: %w", clause, err)
			}
			spec.Drop = d
		case kind == "reset":
			r := &Reset{}
			if err := fault.Assign(kv, map[string]any{"prob": &r.Prob}); err != nil {
				return nil, fmt.Errorf("chaostest: clause %q: %w", clause, err)
			}
			spec.Reset = r
		case kind == "burst5xx":
			b := &Burst5xx{Code: 503}
			if err := fault.Assign(kv, map[string]any{"every": &b.Every, "len": &b.Len, "code": &b.Code}); err != nil {
				return nil, fmt.Errorf("chaostest: clause %q: %w", clause, err)
			}
			spec.Burst = b
		case kind == "slowbody":
			sb := &SlowBody{Chunk: 64}
			if err := fault.Assign(kv, map[string]any{"prob": &sb.Prob, "chunk": &sb.Chunk, "ms": &sb.MS}); err != nil {
				return nil, fmt.Errorf("chaostest: clause %q: %w", clause, err)
			}
			spec.SlowBody = sb
		default:
			return nil, fmt.Errorf("chaostest: unknown clause kind %q (want seed=, delay:, drop:, reset:, burst5xx: or slowbody:)", kind)
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// roll returns a deterministic uniform in [0, 1) for one (fault kind,
// request sequence) pair — a pure function of the seed, so a scenario's
// decision schedule reproduces exactly regardless of goroutine scheduling.
func (s *Spec) roll(kind string, seq uint64) float64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037) ^ s.Seed
	for i := 0; i < len(kind); i++ {
		h ^= uint64(kind[i])
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= (seq >> (8 * i)) & 0xff
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return float64(h>>11) / float64(1<<53)
}
