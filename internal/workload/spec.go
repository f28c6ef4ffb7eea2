package workload

// Declarative workload specification.  Like core.Config's canonical wire
// form, a Spec has a fixed field set in a fixed order, defaults applied on
// canonicalization, and unknown fields rejected on decode — so a spec file
// is content-addressable and a misspelled knob fails loudly instead of
// silently changing the workload.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"agcm/internal/server"
)

// Arrival describes the interarrival process shared by every request in
// the workload, with optional diurnal rate modulation.
type Arrival struct {
	// Process is the interarrival distribution: "poisson" (default, i.e.
	// exponential interarrivals), "gamma", or "weibull".
	Process string `json:"process"`
	// RatePerSec is the mean arrival rate in requests per second
	// (default 20).  Diurnal modulation moves the instantaneous rate
	// around this mean.
	RatePerSec float64 `json:"rate_per_sec"`
	// Shape is the gamma/weibull shape parameter k (default 1, which makes
	// both processes exponential).  k < 1 gives burstier arrivals than
	// Poisson, k > 1 smoother ones.  Ignored for "poisson".
	Shape float64 `json:"shape"`
	// DiurnalAmplitude in [0, 1) modulates the instantaneous rate as
	// rate * (1 + A*sin(2*pi*(t+phase)/period)): 0 (default) is a flat
	// rate, 0.8 swings between 0.2x and 1.8x — a compressed day/night
	// load curve.
	DiurnalAmplitude float64 `json:"diurnal_amplitude"`
	// DiurnalPeriodSec is the modulation period in seconds (default 10).
	DiurnalPeriodSec float64 `json:"diurnal_period_sec"`
	// DiurnalPhaseSec shifts the modulation (default 0).
	DiurnalPhaseSec float64 `json:"diurnal_phase_sec"`
}

// Pool describes a class's distinct configs and their popularity skew.
type Pool struct {
	// Distinct is the number of distinct configs in the class's pool
	// (default 16); pool index i varies the config's init_wind so every
	// index is a distinct ConfigKey.
	Distinct int `json:"distinct"`
	// Zipf > 1 skews popularity toward low pool indices with the given
	// exponent (hot keys, realistic cache-hit ratios); 0 (default) draws
	// uniformly.  Values in (0, 1] are invalid.
	Zipf float64 `json:"zipf"`
}

// Template is the simulation config every request of a class asks for,
// before the pool index varies init_wind.  Field names and defaults match
// the canonical config schema (core.ConfigFromCanonicalJSON).
type Template struct {
	Nlon    int    `json:"nlon"`    // default 36
	Nlat    int    `json:"nlat"`    // default 24
	Nlayers int    `json:"nlayers"` // default 3
	Machine string `json:"machine"` // default "paragon"
	MeshPy  int    `json:"mesh_py"` // default 1
	MeshPx  int    `json:"mesh_px"` // default 1
	Filter  string `json:"filter"`  // default "fft"
}

// Class is one SLO class's share of the workload.
type Class struct {
	// Name is the SLO class: "interactive" or "batch".
	Name string `json:"name"`
	// Weight is the class's share of requests (normalized across classes;
	// default 1).
	Weight float64 `json:"weight"`
	// Steps is the measured step count per request (default 1).
	Steps int `json:"steps"`
	// TimeoutMS is the per-request deadline in milliseconds (0 = server
	// default).
	TimeoutMS int `json:"timeout_ms"`
	// Pool is the class's config pool and popularity skew.
	Pool Pool `json:"pool"`
	// Template is the class's simulation config.
	Template Template `json:"template"`
}

// Spec is a declarative workload: a seeded arrival process over a weighted
// mix of SLO classes, each with its own config pool.  The zero value of
// every field takes the documented default on canonicalization.
type Spec struct {
	// Name labels the workload in reports.
	Name string `json:"name"`
	// Seed drives every random draw; the same spec always generates the
	// same schedule (default 1).
	Seed int64 `json:"seed"`
	// Requests is the total number of requests to generate (default 100).
	Requests int `json:"requests"`
	// Arrival is the interarrival process.
	Arrival Arrival `json:"arrival"`
	// Classes is the SLO class mix; at least one is required.
	Classes []Class `json:"classes"`
}

// WithDefaults returns the spec with every defaulted field filled in, or an
// error for specs no defaulting can make valid.
func (s Spec) WithDefaults() (Spec, error) {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Requests == 0 {
		s.Requests = 100
	}
	if s.Requests < 0 {
		return s, fmt.Errorf("workload: requests must be positive, got %d", s.Requests)
	}
	a := &s.Arrival
	if a.Process == "" {
		a.Process = "poisson"
	}
	switch a.Process {
	case "poisson", "gamma", "weibull":
	default:
		return s, fmt.Errorf("workload: unknown arrival process %q (poisson, gamma, weibull)", a.Process)
	}
	if a.RatePerSec == 0 {
		a.RatePerSec = 20
	}
	if a.RatePerSec <= 0 {
		return s, fmt.Errorf("workload: rate_per_sec must be positive, got %g", a.RatePerSec)
	}
	if a.Shape == 0 {
		a.Shape = 1
	}
	if a.Shape <= 0 {
		return s, fmt.Errorf("workload: shape must be positive, got %g", a.Shape)
	}
	if a.DiurnalAmplitude < 0 || a.DiurnalAmplitude >= 1 {
		return s, fmt.Errorf("workload: diurnal_amplitude must be in [0, 1), got %g", a.DiurnalAmplitude)
	}
	if a.DiurnalPeriodSec == 0 {
		a.DiurnalPeriodSec = 10
	}
	if a.DiurnalPeriodSec <= 0 {
		return s, fmt.Errorf("workload: diurnal_period_sec must be positive, got %g", a.DiurnalPeriodSec)
	}
	if len(s.Classes) == 0 {
		return s, fmt.Errorf("workload: at least one class required")
	}
	s.Classes = append([]Class(nil), s.Classes...)
	seen := make(map[string]bool, len(s.Classes))
	for i := range s.Classes {
		c := &s.Classes[i]
		if _, ok := server.ClassByName(c.Name); !ok || c.Name == "" { // "" is the wire's default, not a name
			return s, fmt.Errorf("workload: unknown class %q (interactive, batch)", c.Name)
		}
		if seen[c.Name] {
			return s, fmt.Errorf("workload: duplicate class %q", c.Name)
		}
		seen[c.Name] = true
		if c.Weight == 0 {
			c.Weight = 1
		}
		if c.Weight < 0 {
			return s, fmt.Errorf("workload: class %q: weight must be positive, got %g", c.Name, c.Weight)
		}
		if c.Steps == 0 {
			c.Steps = 1
		}
		if c.Steps < 0 {
			return s, fmt.Errorf("workload: class %q: steps must be positive, got %d", c.Name, c.Steps)
		}
		if c.TimeoutMS < 0 {
			return s, fmt.Errorf("workload: class %q: timeout_ms must be non-negative, got %d", c.Name, c.TimeoutMS)
		}
		if c.Pool.Distinct == 0 {
			c.Pool.Distinct = 16
		}
		if c.Pool.Distinct < 0 {
			return s, fmt.Errorf("workload: class %q: pool distinct must be positive, got %d", c.Name, c.Pool.Distinct)
		}
		if c.Pool.Zipf != 0 && c.Pool.Zipf <= 1 {
			return s, fmt.Errorf("workload: class %q: zipf exponent must exceed 1 (or be 0 for uniform), got %g", c.Name, c.Pool.Zipf)
		}
		t := &c.Template
		if t.Nlon == 0 {
			t.Nlon = 36
		}
		if t.Nlat == 0 {
			t.Nlat = 24
		}
		if t.Nlayers == 0 {
			t.Nlayers = 3
		}
		if t.Machine == "" {
			t.Machine = "paragon"
		}
		if t.MeshPy == 0 {
			t.MeshPy = 1
		}
		if t.MeshPx == 0 {
			t.MeshPx = 1
		}
		if t.Filter == "" {
			t.Filter = "fft"
		}
	}
	return s, nil
}

// CanonicalJSON returns the spec's canonical encoding: defaults applied,
// fields in the fixed struct order, no omitted fields.  Two specs that
// differ only in defaulted fields canonicalize to the same bytes — they
// generate the same schedule.
func (s Spec) CanonicalJSON() ([]byte, error) {
	cs, err := s.WithDefaults()
	if err != nil {
		return nil, err
	}
	return json.Marshal(cs)
}

// Hash returns the SHA-256 of the canonical encoding as lowercase hex: the
// workload's content address.
func (s Spec) Hash() (string, error) {
	raw, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// ParseSpec decodes a workload spec, rejecting unknown fields and trailing
// data, and validates it by applying defaults.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("workload: decoding spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("workload: trailing data after spec")
	}
	if _, err := s.WithDefaults(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// fmtFloat renders a float the way the request bodies need it: shortest
// round-trip form.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
