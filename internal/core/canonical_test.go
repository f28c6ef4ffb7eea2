package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"agcm/internal/fault"
	"agcm/internal/grid"
	"agcm/internal/history"
	"agcm/internal/machine"
	"agcm/internal/physics"
)

// keyStabilityGolden pins the ConfigKey of a fixed reference config.  The
// canonical encoding is a persistent cache-address format: any change to the
// field set, field order, defaulting or float formatting silently invalidates
// (or worse, aliases) every stored key, so format drift must be a conscious,
// test-breaking decision.
const keyStabilityGolden = "7ac4aced54bd3d82aca9411ffa2feade5d6f157b1a83e3848f0664b1841e74fb"

func TestConfigKeyStability(t *testing.T) {
	cfg := Config{
		Spec:          grid.TwoByTwoPointFive(9),
		Machine:       machine.Paragon(),
		MeshPy:        4,
		MeshPx:        8,
		Filter:        FilterFFTBalanced,
		PhysicsScheme: physics.Pairwise,
	}
	key, err := cfg.ConfigKey()
	if err != nil {
		t.Fatal(err)
	}
	if key != keyStabilityGolden {
		raw, _ := cfg.CanonicalJSON()
		t.Fatalf("canonical format drifted:\n got key %s\nwant key %s\ncanonical: %s",
			key, keyStabilityGolden, raw)
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	faultSpec, err := fault.Parse("seed=7;slow:rank=1,at=0.5,factor=3;jitter:max=2e-4")
	if err != nil {
		t.Fatal(err)
	}
	configs := map[string]Config{
		"basic": testConfig(2, 2, FilterFFTBalanced),
		"all-knobs": {
			Spec:              testSpec,
			Machine:           machine.CrayT3D(),
			MeshPy:            2,
			MeshPx:            3,
			Filter:            FilterConvolutionTree,
			PhysicsScheme:     physics.Greedy,
			PhysicsRounds:     3,
			Dt:                120,
			InitWind:          25,
			VerticalDiffusion: 0.1,
			WarmupSteps:       4,
			DegradeRank:       1,
			DegradeFactor:     2.5,
			EventLog:          true,
			CaptureState:      true,
			CheckpointEvery:   2,
			Fault:             faultSpec,
			Topology:          "torus",
			Placement:         "snake",
		},
		"no-warmup": func() Config {
			c := testConfig(1, 2, FilterFFT)
			c.WarmupSteps = -1
			return c
		}(),
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			raw, err := cfg.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			back, err := ConfigFromCanonicalJSON(raw)
			if err != nil {
				t.Fatalf("decoding %s: %v", raw, err)
			}
			raw2, err := back.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(raw) != string(raw2) {
				t.Fatalf("canonical round trip not a fixpoint:\n first %s\nsecond %s", raw, raw2)
			}
			k1, err := cfg.ConfigKey()
			if err != nil {
				t.Fatal(err)
			}
			k2, err := back.ConfigKey()
			if err != nil {
				t.Fatal(err)
			}
			if k1 != k2 {
				t.Fatalf("keys differ across round trip: %s vs %s", k1, k2)
			}
		})
	}
}

// TestCanonicalDefaultedAliases checks that configs differing only in
// defaulted fields canonicalize to the same key — they run the same
// simulation, so they must share a cache entry.
func TestCanonicalDefaultedAliases(t *testing.T) {
	a := testConfig(2, 2, FilterFFTBalanced)
	b := a
	// Spell out explicitly what withDefaults would fill in.
	withDef, err := a.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	b.Dt = withDef.Dt
	b.InitWind = 20
	b.PhysicsRounds = 2
	b.WarmupSteps = 2
	ka, err := a.ConfigKey()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.ConfigKey()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("explicitly-defaulted config got a different key: %s vs %s", ka, kb)
	}
	c := a
	c.Dt = withDef.Dt * 2
	kc, err := c.ConfigKey()
	if err != nil {
		t.Fatal(err)
	}
	if kc == ka {
		t.Fatal("different dt must change the key")
	}
}

// roundsKeysGolden is the SHA-256 of the ConfigKeys of TestConfigKeyStability's
// config at PhysicsRounds 1 to 8, one per line: the keys of every accepted
// round count, as they were before out-of-range counts were rejected.
const roundsKeysGolden = "aa7cd4d6be6cde4503cc52ff028d136e187e13370a47e480266674a274569978"

// TestPhysicsRoundsRange checks that withDefaults rejects round counts the
// Runner would clamp — so no two keys name one simulation — and keeps the
// keys of the counts it accepts.
func TestPhysicsRoundsRange(t *testing.T) {
	cfg := Config{
		Spec:          grid.TwoByTwoPointFive(9),
		Machine:       machine.Paragon(),
		MeshPy:        4,
		MeshPx:        8,
		Filter:        FilterFFTBalanced,
		PhysicsScheme: physics.Pairwise,
	}
	for _, rounds := range []int{-3, -1, physics.MaxRounds + 1, 20} {
		cfg.PhysicsRounds = rounds
		if _, err := cfg.ConfigKey(); err == nil {
			t.Errorf("PhysicsRounds %d accepted", rounds)
		}
	}
	h := sha256.New()
	for rounds := 1; rounds <= physics.MaxRounds; rounds++ {
		cfg.PhysicsRounds = rounds
		key, err := cfg.ConfigKey()
		if err != nil {
			t.Fatalf("PhysicsRounds %d: %v", rounds, err)
		}
		fmt.Fprintln(h, key)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != roundsKeysGolden {
		t.Fatalf("keys of rounds 1..%d moved: digest %s, want %s", physics.MaxRounds, got, roundsKeysGolden)
	}
}

func TestCanonicalRejectsUnknownFields(t *testing.T) {
	raw := []byte(`{"machine":"Intel Paragon","nlon":36,"nlat":24,"nlayers":3,` +
		`"mesh_py":1,"mesh_px":2,"fliter":"fft"}`)
	if _, err := ConfigFromCanonicalJSON(raw); err == nil ||
		!strings.Contains(err.Error(), "fliter") {
		t.Fatalf("misspelled field not rejected: %v", err)
	}
	if _, err := ConfigFromCanonicalJSON([]byte(`{"machine":"paragon"} {}`)); err == nil {
		t.Fatal("trailing data not rejected")
	}
	if _, err := ConfigFromCanonicalJSON([]byte(`{"nlon":36}`)); err == nil {
		t.Fatal("missing machine not rejected")
	}
}

func TestCanonicalRejectsUnrepresentable(t *testing.T) {
	cfg := testConfig(1, 1, FilterFFT)
	cfg.InitialState = &history.File{Spec: testSpec}
	if _, err := cfg.CanonicalJSON(); err == nil {
		t.Error("in-memory InitialState accepted")
	}
	cfg = testConfig(1, 1, FilterFFT)
	cfg.Machine = machine.Degraded(machine.Paragon(), 2)
	if _, err := cfg.CanonicalJSON(); err == nil {
		t.Error("non-round-tripping machine name accepted")
	}
	// The wire names the machine, so a model that keeps a name but not its
	// numbers (a host fitted elsewhere) would share the named model's key.
	fitted := machine.Host()
	fitted.Eff.Physics *= 2
	cfg = testConfig(1, 1, FilterFFT)
	cfg.Machine = fitted
	if _, err := cfg.CanonicalJSON(); err == nil {
		t.Error("a model differing from its name's accepted")
	}
}

// TestCanonicalFaultRoundTrip checks the fault clause syntax survives the
// canonical encoding (it is embedded as a string).
func TestCanonicalFaultRoundTrip(t *testing.T) {
	cfg := testConfig(2, 2, FilterFFT)
	spec, err := fault.Parse("seed=3;drop:prob=0.01,retries=4,timeout=5e-3")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = spec
	raw, err := cfg.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ConfigFromCanonicalJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fault == nil || back.Fault.String() != spec.String() {
		t.Fatalf("fault spec did not round-trip: %v", back.Fault)
	}
}
