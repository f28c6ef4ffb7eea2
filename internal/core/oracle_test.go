package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"agcm/internal/core"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/roofline"
)

func predictConfig(nlon, nlat, nlayers, py, px int) core.Config {
	return core.Config{
		Spec:    grid.Spec{Nlon: nlon, Nlat: nlat, Nlayers: nlayers},
		Machine: machine.Paragon(),
		MeshPy:  py, MeshPx: px,
		Filter: core.FilterFFT,
	}
}

// forEachOracle runs fn once per real oracle: the roofline predictor on the
// built-in host model and on each paper machine's.  The properties below are
// what admission relies on, so they must hold for every model a daemon or a
// what-if can be given.
func forEachOracle(t *testing.T, fn func(t *testing.T, price func(core.Config, int) float64)) {
	type named struct {
		name  string
		model *machine.Model
	}
	models := []named{{"host", machine.Host()}}
	for _, m := range machine.All() {
		models = append(models, named{m.Name, m})
	}
	for _, nm := range models {
		oracle, err := roofline.NewMachine(nm.model)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(nm.name, func(t *testing.T) {
			fn(t, func(cfg core.Config, steps int) float64 {
				t.Helper()
				s, err := core.PredictCostWith(oracle, cfg, steps)
				if err != nil {
					t.Fatal(err)
				}
				if s <= 0 {
					t.Fatalf("non-positive price %g", s)
				}
				return s
			})
		})
	}
}

func TestPredictCostDeterministic(t *testing.T) {
	forEachOracle(t, func(t *testing.T, price func(core.Config, int) float64) {
		cfg := predictConfig(36, 24, 3, 2, 2)
		if a, b := price(cfg, 3), price(cfg, 3); a != b {
			t.Fatalf("same job priced %g then %g", a, b)
		}
	})
}

// TestPredictCostMonotone: more steps or more grid points are never cheaper,
// on one rank or on a mesh.
func TestPredictCostMonotone(t *testing.T) {
	forEachOracle(t, func(t *testing.T, price func(core.Config, int) float64) {
		for _, mesh := range [][2]int{{1, 1}, {2, 2}} {
			small := predictConfig(36, 24, 3, mesh[0], mesh[1])
			big := predictConfig(72, 46, 9, mesh[0], mesh[1])
			if one, three := price(small, 1), price(small, 3); three <= one {
				t.Fatalf("mesh %v: three steps %g not above one step %g", mesh, three, one)
			}
			if s, b := price(small, 1), price(big, 1); b <= s {
				t.Fatalf("mesh %v: bigger grid %g not above smaller %g", mesh, b, s)
			}
		}
	})
}

// TestPredictCostHostRanksMeshesAsTheHostDoes pins the direction core.Run
// shows on this host: one grid on more simulated ranks costs the host more
// (every rank's work lands on one clock, plus the messages), so sjf under the
// default calibration must not rank a 4x4 job ahead of its 1x1 twin.
func TestPredictCostHostRanksMeshesAsTheHostDoes(t *testing.T) {
	host, err := roofline.NewMachine(machine.Host())
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for _, mesh := range [][2]int{{1, 1}, {2, 2}, {4, 4}} {
		s, err := core.PredictCostWith(host, predictConfig(36, 24, 3, mesh[0], mesh[1]), 1)
		if err != nil {
			t.Fatal(err)
		}
		if s <= prev {
			t.Fatalf("mesh %v priced %g, not above the smaller mesh's %g", mesh, s, prev)
		}
		prev = s
	}
}

// TestPredictCostMatchesCanonicalIdentity: configs with equal ConfigKeys
// price equally — here one that spells out the defaults the other leaves to
// normalization.
func TestPredictCostMatchesCanonicalIdentity(t *testing.T) {
	a := predictConfig(36, 24, 3, 2, 2)
	norm, err := a.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	b := a
	b.Dt, b.WarmupSteps, b.PhysicsRounds, b.InitWind = norm.Dt, norm.WarmupSteps, norm.PhysicsRounds, norm.InitWind
	ka, err := a.ConfigKey()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.ConfigKey()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("test configs do not share a ConfigKey: %s vs %s", ka, kb)
	}
	forEachOracle(t, func(t *testing.T, price func(core.Config, int) float64) {
		if pa, pb := price(a, 2), price(b, 2); pa != pb {
			t.Fatalf("equal ConfigKeys priced %g and %g", pa, pb)
		}
	})
}

// TestPredictCostDegenerateConfigs table-drives the edge cases the oracle
// front door must reject before any oracle is consulted: the sjf scheduler
// relies on an error (not a bogus number) to trigger its fcfs fallback.
func TestPredictCostDegenerateConfigs(t *testing.T) {
	good := predictConfig(36, 24, 3, 1, 1)
	cases := []struct {
		name  string
		cfg   core.Config
		steps int
	}{
		{"zero config", core.Config{}, 1},
		{"zero steps", good, 0},
		{"negative steps", good, -3},
		{"zero ranks", func() core.Config { c := good; c.MeshPy, c.MeshPx = 0, 0; return c }(), 1},
		{"zero mesh py", func() core.Config { c := good; c.MeshPy = 0; return c }(), 1},
		{"negative mesh px", func() core.Config { c := good; c.MeshPx = -2; return c }(), 1},
		{"nil machine", func() core.Config { c := good; c.Machine = nil; return c }(), 1},
		{"degenerate grid", func() core.Config { c := good; c.Spec = grid.Spec{Nlon: 2, Nlat: 2, Nlayers: 0}; return c }(), 1},
		{"negative dt", func() core.Config { c := good; c.Dt = -1; return c }(), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oracle := &countingOracle{seconds: 42}
			if _, err := core.PredictCostWith(oracle, tc.cfg, tc.steps); err == nil {
				t.Fatalf("PredictCostWith accepted %s", tc.name)
			}
			if oracle.calls != 0 {
				t.Fatalf("oracle consulted for %s", tc.name)
			}
		})
	}
}

// TestPredictCostRejectsBadInput: the real oracles sit behind the same guard.
func TestPredictCostRejectsBadInput(t *testing.T) {
	host, err := roofline.NewMachine(machine.Host())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.PredictCostWith(host, core.Config{}, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := core.PredictCostWith(host, predictConfig(36, 24, 3, 1, 1), 0); err == nil {
		t.Fatal("zero steps accepted")
	}
}

type countingOracle struct {
	seconds float64
	err     error
	calls   int
}

func (o *countingOracle) PredictSeconds(cfg core.Config, steps int) (float64, error) {
	o.calls++
	if o.err != nil {
		return 0, o.err
	}
	return o.seconds, nil
}

func TestPredictCostWithConsultsOracle(t *testing.T) {
	cfg := predictConfig(36, 24, 3, 1, 1)
	oracle := &countingOracle{seconds: 7.5}
	got, err := core.PredictCostWith(oracle, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7.5 || oracle.calls != 1 {
		t.Fatalf("oracle not consulted exactly once: got %g, calls %d", got, oracle.calls)
	}

	failing := &countingOracle{err: fmt.Errorf("no price")}
	if _, err := core.PredictCostWith(failing, cfg, 2); err == nil {
		t.Fatal("oracle error swallowed")
	}
}

func TestNormalizedFillsDefaults(t *testing.T) {
	cfg := core.Config{
		Spec:    grid.Spec{Nlon: 36, Nlat: 24, Nlayers: 3},
		Machine: machine.Paragon(),
		MeshPy:  1, MeshPx: 1,
	}
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Dt <= 0 || norm.WarmupSteps != 2 || norm.PhysicsRounds != 2 {
		t.Fatalf("defaults not applied: dt=%g warmup=%d rounds=%d",
			norm.Dt, norm.WarmupSteps, norm.PhysicsRounds)
	}
	if _, err := (core.Config{}).Normalized(); err == nil {
		t.Fatal("Normalized accepted the zero config")
	}
}

// TestNormalizedIdempotent: normalizing is a projection — a second pass
// changes nothing — and it does not move the config's key, so a normalized
// config is the same simulation as the one it came from.  (WarmupSteps -1
// used to normalize to 0, which the next pass read as "default 2".)
func TestNormalizedIdempotent(t *testing.T) {
	for warmup, wantWarm := range map[int]int{-1: 0, 0: 2, 3: 3} {
		for _, degrade := range []bool{false, true} {
			for _, dt := range []float64{0, 90} {
				for _, topology := range []string{"", "none"} {
					cfg := predictConfig(36, 24, 3, 1, 2)
					cfg.WarmupSteps, cfg.Dt, cfg.Topology = warmup, dt, topology
					if degrade {
						cfg.DegradeRank, cfg.DegradeFactor = 1, 2
					}
					name := fmt.Sprintf("warmup=%d degrade=%v dt=%g topology=%q", warmup, degrade, dt, topology)
					once, err := cfg.Normalized()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					twice, err := once.Normalized()
					if err != nil {
						t.Fatalf("%s: second pass: %v", name, err)
					}
					if !reflect.DeepEqual(once, twice) {
						t.Errorf("%s: a second Normalized changed the config:\n once  %+v\n twice %+v", name, once, twice)
					}
					if got := max(once.WarmupSteps, 0); got != wantWarm {
						t.Errorf("%s: normalized to %d warmup steps, want %d", name, got, wantWarm)
					}
					key, err := cfg.ConfigKey()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if normKey, err := once.ConfigKey(); err != nil || normKey != key {
						t.Errorf("%s: ConfigKey of the normalized config = %s (%v), of the original %s", name, normKey, err, key)
					}
				}
			}
		}
	}
}
