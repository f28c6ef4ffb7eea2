package workload

// Generate expands a Spec into a Schedule: the deterministic heart of the
// engine.  Three independent derived rngs (arrival clock, class mix, one
// popularity stream per class) keep the draws decoupled — changing one
// class's pool skew cannot shift another class's arrival times — while the
// single spec seed still pins every byte.

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"agcm/internal/core"
)

// Derived-seed offsets.  Arbitrary odd constants; what matters is that the
// streams differ and never change, or every committed trace goes stale.
const (
	seedArrival   = 0x5eed0a11
	seedClassMix  = 0x5eed0c1a
	seedPoolBase  = 0x5eed0b00
	seedPoolClass = 1000003 // per-class stride on top of seedPoolBase
)

// picker draws a pool index for one class.
type picker func() int

// newPicker returns the pool-index draw for a canonicalized class: Zipf
// with the spec'd exponent when set (index 0 hottest), uniform otherwise.
func newPicker(rng *rand.Rand, p Pool) picker {
	if p.Zipf > 1 {
		z := rand.NewZipf(rng, p.Zipf, 1, uint64(p.Distinct-1))
		return func() int { return int(z.Uint64()) }
	}
	n := p.Distinct
	return func() int { return rng.Intn(n) }
}

// configJSON renders the canonical-schema config object a request of class
// c at pool index idx asks for.  The layout is fixed — field order, float
// formatting, no whitespace — so equal (class, idx) always yields equal
// bytes.
func configJSON(c Class, idx int) string {
	var b strings.Builder
	b.Grow(128)
	b.WriteString(`{"nlon":`)
	b.WriteString(strconv.Itoa(c.Template.Nlon))
	b.WriteString(`,"nlat":`)
	b.WriteString(strconv.Itoa(c.Template.Nlat))
	b.WriteString(`,"nlayers":`)
	b.WriteString(strconv.Itoa(c.Template.Nlayers))
	b.WriteString(`,"machine":"`)
	b.WriteString(c.Template.Machine)
	b.WriteString(`","mesh_py":`)
	b.WriteString(strconv.Itoa(c.Template.MeshPy))
	b.WriteString(`,"mesh_px":`)
	b.WriteString(strconv.Itoa(c.Template.MeshPx))
	b.WriteString(`,"filter":"`)
	b.WriteString(c.Template.Filter)
	b.WriteString(`","init_wind":`)
	b.WriteString(fmtFloat(poolWind(idx)))
	b.WriteString(`}`)
	return b.String()
}

// body renders the exact POST /v1/run payload for one request of class c
// asking for pool index idx.
func body(c Class, idx int) string {
	var b strings.Builder
	b.Grow(224)
	b.WriteString(`{"config":`)
	b.WriteString(configJSON(c, idx))
	b.WriteString(`,"steps":`)
	b.WriteString(strconv.Itoa(c.Steps))
	b.WriteString(`,"slo":"`)
	b.WriteString(c.Name)
	b.WriteString(`"`)
	if c.TimeoutMS > 0 {
		b.WriteString(`,"timeout_ms":`)
		b.WriteString(strconv.Itoa(c.TimeoutMS))
	}
	b.WriteString(`}`)
	return b.String()
}

// poolWind maps a pool index to the config's initial wind speed.  20 m/s is
// the config default; each index offsets it by 0.25 m/s, a perturbation
// small enough to keep every pool config numerically tame but large enough
// that every index is a distinct ConfigKey.
func poolWind(idx int) float64 { return 20 + 0.25*float64(idx) }

// Config returns the core config a request of class c at pool index idx
// simulates — the parsed form of the body's "config" object.  The
// scheduler simulator uses it to predict per-request cost without HTTP in
// the loop.
func (c Class) Config(idx int) (core.Config, error) {
	return core.ConfigFromCanonicalJSON([]byte(configJSON(c, idx)))
}

// Generate expands the spec into its schedule.  The same spec (up to
// canonicalization) always produces byte-identical requests.
func Generate(spec Spec) (*Schedule, error) {
	cs, err := spec.WithDefaults()
	if err != nil {
		return nil, err
	}

	// Fail on unsimulatable templates up front by round-tripping each
	// class's config through the server's own canonical parser.
	for _, c := range cs.Classes {
		if _, err := c.Config(c.Pool.Distinct - 1); err != nil {
			return nil, fmt.Errorf("workload: class %q template: %w", c.Name, err)
		}
	}

	arrivalRng := rand.New(rand.NewSource(cs.Seed + seedArrival))
	classRng := rand.New(rand.NewSource(cs.Seed + seedClassMix))
	draw := newSampler(cs.Arrival)

	pickers := make([]picker, len(cs.Classes))
	for i, c := range cs.Classes {
		poolRng := rand.New(rand.NewSource(cs.Seed + seedPoolBase + seedPoolClass*int64(i+1)))
		pickers[i] = newPicker(poolRng, c.Pool)
	}

	var totalWeight float64
	for _, c := range cs.Classes {
		totalWeight += c.Weight
	}

	sched := &Schedule{
		Spec:     cs,
		Requests: make([]Request, 0, cs.Requests),
	}
	t := 0.0
	for seq := 0; seq < cs.Requests; seq++ {
		t = nextArrival(cs.Arrival, arrivalRng, draw, t)

		ci := len(cs.Classes) - 1
		u := classRng.Float64() * totalWeight
		for i, c := range cs.Classes {
			if u < c.Weight {
				ci = i
				break
			}
			u -= c.Weight
		}
		c := cs.Classes[ci]
		idx := pickers[ci]()

		sched.Requests = append(sched.Requests, Request{
			Seq:       seq,
			AtUS:      int64(math.Round(t * 1e6)),
			Class:     c.Name,
			PoolIndex: idx,
			Steps:     c.Steps,
			TimeoutMS: c.TimeoutMS,
			Body:      body(c, idx),
		})
	}
	return sched, nil
}
