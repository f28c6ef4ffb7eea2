package core

// Canonical config serialization: the content-addressing layer under the
// agcmd result cache.  The virtual machine is bit-deterministic — identical
// Configs produce byte-identical Reports — so a stable, injective encoding
// of Config is a sound cache key for whole simulation runs.
//
// Canonical form is the defaulted config (withDefaults applied), encoded as
// JSON with a fixed field set and field order.  Two Configs that differ only
// in defaulted fields (e.g. Dt=0 versus the CFL-derived value) canonicalize
// to the same bytes, so they alias in a cache — which is exactly right,
// because they run the same simulation.  Decoding rejects unknown fields so
// a misspelled field can never silently alias two genuinely different
// requests onto one key.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"agcm/internal/fault"
	"agcm/internal/machine"
	"agcm/internal/physics"
)

// FilterVariantByName returns the variant whose String() form matches name;
// it also accepts the short command-line aliases ("conv", "fft-lb", ...).
// Every variant round-trips: FilterVariantByName(v.String()) == v.
func FilterVariantByName(name string) (FilterVariant, error) {
	switch name {
	case "conv", "convolution", "convolution-ring":
		return FilterConvolutionRing, nil
	case "conv-tree", "convolution-tree":
		return FilterConvolutionTree, nil
	case "fft":
		return FilterFFT, nil
	case "fft-lb", "fft-load-balanced":
		return FilterFFTBalanced, nil
	case "fft-rowwise":
		return FilterFFTRowwise, nil
	case "polar-diffusion", "polar-implicit-diffusion":
		return FilterPolarDiffusion, nil
	case "none":
		return FilterNone, nil
	}
	return 0, fmt.Errorf(
		"core: unknown filter %q (conv, conv-tree, fft, fft-lb, fft-rowwise, polar-diffusion, none)", name)
}

// canonicalConfig is the wire form of a Config: every field the simulation
// observes, in a fixed order, with enums and sub-specs as strings.  No field
// carries omitempty, so the encoded byte layout is fully determined by the
// values alone.
type canonicalConfig struct {
	Nlon              int     `json:"nlon"`
	Nlat              int     `json:"nlat"`
	Nlayers           int     `json:"nlayers"`
	Machine           string  `json:"machine"`
	MeshPy            int     `json:"mesh_py"`
	MeshPx            int     `json:"mesh_px"`
	Filter            string  `json:"filter"`
	PhysicsScheme     string  `json:"physics_scheme"`
	PhysicsRounds     int     `json:"physics_rounds"`
	Dt                float64 `json:"dt"`
	InitWind          float64 `json:"init_wind"`
	VerticalDiffusion float64 `json:"vertical_diffusion"`
	WarmupSteps       int     `json:"warmup_steps"`
	DegradeRank       int     `json:"degrade_rank"`
	DegradeFactor     float64 `json:"degrade_factor"`
	EventLog          bool    `json:"event_log"`
	CaptureState      bool    `json:"capture_state"`
	CheckpointEvery   int     `json:"checkpoint_every"`
	Fault             string  `json:"fault"`
	Topology          string  `json:"topology"`
	Placement         string  `json:"placement"`
}

// CanonicalJSON returns the canonical encoding of the config: defaults
// applied, fields in fixed order, enums by name.  It fails on configs that
// cannot be represented on the wire — an in-memory InitialState checkpoint,
// a machine model (e.g. a Degraded copy, or a host model fitted elsewhere)
// that is not exactly the model machine.ByName returns for its name — and
// on configs withDefaults rejects.
func (c Config) CanonicalJSON() ([]byte, error) {
	cfg, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.InitialState != nil {
		return nil, fmt.Errorf("core: config with an in-memory InitialState has no canonical form")
	}
	named, err := machine.Lookup(cfg.Machine.Name)
	if err != nil {
		return nil, fmt.Errorf("core: machine %q has no canonical form: %w", cfg.Machine.Name, err)
	}
	if named != *cfg.Machine {
		return nil, fmt.Errorf("core: machine %q differs from the model of that name, so it has no canonical form", cfg.Machine.Name)
	}
	if _, err := FilterVariantByName(cfg.Filter.String()); err != nil {
		return nil, err
	}
	if _, err := physics.SchemeByName(cfg.PhysicsScheme.String()); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	faultStr := ""
	if !cfg.Fault.Empty() {
		faultStr = cfg.Fault.String()
	}
	topology := cfg.Topology
	if topology == "none" {
		topology = ""
	}
	return json.Marshal(canonicalConfig{
		Nlon:              cfg.Spec.Nlon,
		Nlat:              cfg.Spec.Nlat,
		Nlayers:           cfg.Spec.Nlayers,
		Machine:           cfg.Machine.Name,
		MeshPy:            cfg.MeshPy,
		MeshPx:            cfg.MeshPx,
		Filter:            cfg.Filter.String(),
		PhysicsScheme:     cfg.PhysicsScheme.String(),
		PhysicsRounds:     cfg.PhysicsRounds,
		Dt:                cfg.Dt,
		InitWind:          cfg.InitWind,
		VerticalDiffusion: cfg.VerticalDiffusion,
		WarmupSteps:       max(cfg.WarmupSteps, 0),
		DegradeRank:       cfg.DegradeRank,
		DegradeFactor:     cfg.DegradeFactor,
		EventLog:          cfg.EventLog,
		CaptureState:      cfg.CaptureState,
		CheckpointEvery:   cfg.CheckpointEvery,
		Fault:             faultStr,
		Topology:          topology,
		Placement:         cfg.Placement,
	})
}

// ConfigKey returns the SHA-256 of the canonical encoding as lowercase hex:
// the content address of this simulation.  Configs that canonicalize to the
// same bytes run the same simulation and may share a cached Report.
func (c Config) ConfigKey() (string, error) {
	raw, err := c.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// ConfigFromCanonicalJSON decodes a canonical (or hand-written request)
// config.  Unknown fields are rejected — a typo must fail loudly rather
// than alias onto the key of the config without the field.  Fields left out
// take the usual defaults, exactly as the zero Config does.
func ConfigFromCanonicalJSON(data []byte) (Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w canonicalConfig
	// On the wire warmup_steps is the actual warmup count (0 = none) and an
	// absent field means "the default".  Sentinels distinguish the cases,
	// since Config itself spells "none" as negative and "default" as 0.
	w.WarmupSteps = -1
	w.DegradeRank = -1
	if err := dec.Decode(&w); err != nil {
		return Config{}, fmt.Errorf("core: decoding canonical config: %w", err)
	}
	if dec.More() {
		return Config{}, fmt.Errorf("core: trailing data after canonical config")
	}
	var c Config
	c.Spec.Nlon, c.Spec.Nlat, c.Spec.Nlayers = w.Nlon, w.Nlat, w.Nlayers
	if w.Machine == "" {
		return Config{}, fmt.Errorf("core: canonical config missing machine")
	}
	m, err := machine.ByName(w.Machine)
	if err != nil {
		return Config{}, err
	}
	c.Machine = m
	c.MeshPy, c.MeshPx = w.MeshPy, w.MeshPx
	if w.Filter != "" {
		v, err := FilterVariantByName(w.Filter)
		if err != nil {
			return Config{}, err
		}
		c.Filter = v
	}
	if w.PhysicsScheme != "" {
		s, err := physics.SchemeByName(w.PhysicsScheme)
		if err != nil {
			return Config{}, fmt.Errorf("core: %w", err)
		}
		c.PhysicsScheme = s
	}
	c.PhysicsRounds = w.PhysicsRounds
	c.Dt = w.Dt
	c.InitWind = w.InitWind
	c.VerticalDiffusion = w.VerticalDiffusion
	switch {
	case w.WarmupSteps < 0: // absent: take the default
		c.WarmupSteps = 0
	case w.WarmupSteps == 0: // explicit zero: no warmup
		c.WarmupSteps = -1
	default:
		c.WarmupSteps = w.WarmupSteps
	}
	c.DegradeRank = w.DegradeRank
	c.DegradeFactor = w.DegradeFactor
	if c.DegradeFactor == 0 {
		c.DegradeRank = -1
	}
	c.EventLog = w.EventLog
	c.CaptureState = w.CaptureState
	c.CheckpointEvery = w.CheckpointEvery
	if w.Fault != "" {
		spec, err := fault.Parse(w.Fault)
		if err != nil {
			return Config{}, err
		}
		c.Fault = spec
	}
	c.Topology = w.Topology
	c.Placement = w.Placement
	return c, nil
}
