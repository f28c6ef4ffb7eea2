package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"agcm/internal/fault"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/physics"
	"agcm/internal/topology"
)

// reportBits renders every bit of a Report — floats by math.Float64bits,
// through every pointer, slice and map (in key order) — and, for a routed
// run with an event log, the contention replay: equal strings mean
// bit-identical reports.
func reportBits(t *testing.T, rep *Report) string {
	t.Helper()
	var b strings.Builder
	writeBits(&b, reflect.ValueOf(rep), make(map[uintptr]bool))
	if rep.Network != nil && rep.Raw != nil && rep.Raw.Events != nil {
		crep, err := rep.Network.Contend(topology.TransfersFromEvents(rep.Raw.Events))
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString("contend ")
		writeBits(&b, reflect.ValueOf(crep), make(map[uintptr]bool))
	}
	return b.String()
}

func writeBits(b *strings.Builder, v reflect.Value, seen map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(b, "%x ", math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(b, "%d ", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprintf(b, "%d ", v.Uint())
	case reflect.Bool:
		fmt.Fprintf(b, "%t ", v.Bool())
	case reflect.String:
		fmt.Fprintf(b, "%q ", v.String())
	case reflect.Pointer:
		if v.IsNil() {
			b.WriteString("nil ")
			return
		}
		if seen[v.Pointer()] {
			b.WriteString("seen ")
			return
		}
		seen[v.Pointer()] = true
		writeBits(b, v.Elem(), seen)
	case reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil ")
			return
		}
		b.WriteString(v.Elem().Type().String() + " ")
		writeBits(b, v.Elem(), seen)
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(b, "[%d ", v.Len())
		for i := 0; i < v.Len(); i++ {
			writeBits(b, v.Index(i), seen)
		}
		b.WriteString("] ")
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		fmt.Fprintf(b, "{%d ", len(keys))
		for _, k := range keys {
			writeBits(b, k, seen)
			writeBits(b, v.MapIndex(k), seen)
		}
		b.WriteString("} ")
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b.WriteString(v.Type().Field(i).Name + ":")
			writeBits(b, v.Field(i), seen)
		}
	default: // funcs and channels: only whether they are set
		fmt.Fprintf(b, "%v:%t ", v.Kind(), !v.IsZero())
	}
}

// newTestPool returns an empty pool with the process budget.
func newTestPool() *kitPool { return &kitPool{budget: kitBudget} }

// kitCase is one shape of the kit-versus-fresh check: b is the run whose
// report must not depend on the kit it ran on.
type kitCase struct {
	name  string
	b     Config
	steps int
}

// kitCases covers every filter variant under every balancing scheme, half
// of them with the event log on, and a degraded rank, a routed interconnect,
// a non-crash fault, a restart from a checkpoint and vertical diffusion.
func kitCases(t *testing.T) []kitCase {
	var cases []kitCase
	for fv := FilterConvolutionRing; fv <= FilterFFTRowwise; fv++ {
		for _, s := range []physics.Scheme{physics.None, physics.Shuffle, physics.Greedy, physics.Pairwise} {
			cfg := testConfig(2, 2, fv)
			cfg.PhysicsScheme = s
			cfg.EventLog = s == physics.Greedy || s == physics.Pairwise
			cases = append(cases, kitCase{fmt.Sprintf("%v/%v", fv, s), cfg, 2})
		}
	}
	pairwise := func() Config {
		cfg := testConfig(2, 2, FilterFFTBalanced)
		cfg.PhysicsScheme, cfg.PhysicsRounds = physics.Pairwise, 2
		return cfg
	}
	degraded := pairwise()
	degraded.DegradeRank, degraded.DegradeFactor = 1, 2.5
	routed := pairwise()
	routed.Topology, routed.Placement, routed.EventLog = "mesh", "snake", true
	faulty := pairwise()
	faulty.Fault = &fault.Spec{Seed: 7,
		Slowdowns: []fault.Slowdown{{Rank: 2, At: 0, Factor: 1.7}},
		Jitter:    &fault.Jitter{Max: 2e-5},
		Drop:      &fault.Drop{Prob: 0.05, Retries: 50, Timeout: 1e-4}}
	vertical := pairwise()
	vertical.VerticalDiffusion = 0.1
	restart := pairwise()
	restart.WarmupSteps = -1
	restart.CaptureState, restart.CheckpointEvery = true, 1
	first, err := Run(restart, 2)
	if err != nil {
		t.Fatal(err)
	}
	restart.InitialState = first.FinalState
	return append(cases,
		kitCase{"degraded", degraded, 2},
		kitCase{"routed", routed, 2},
		kitCase{"fault", faulty, 2},
		kitCase{"vertical-diffusion", vertical, 2},
		kitCase{"restart", restart, 3})
}

// TestKitMatchesFresh: run A, then B on A's kit; B's report must equal, bit
// for bit, B's on a new kit.  A shares B's shape but nothing per-run: another
// wind, more steps, the event log, checkpoints and a captured state, and a
// routed network and a fault where B has none, so every field, halo,
// estimate, buffer and machine setting B inherits is dirty.
func TestKitMatchesFresh(t *testing.T) {
	for _, c := range kitCases(t) {
		t.Run(c.name, func(t *testing.T) {
			a := c.b
			a.Machine = machine.Paragon() // equal by value, not by pointer
			a.InitWind, a.EventLog = 31, true
			a.CaptureState, a.CheckpointEvery, a.InitialState = true, 1, nil
			if a.Topology == "" {
				a.Topology = "switch"
			}
			if a.Fault == nil {
				a.Fault = &fault.Spec{Seed: 3, Slowdowns: []fault.Slowdown{{Rank: 0, At: 0, Factor: 1.3}}}
			}
			pool := newTestPool()
			if _, err := pool.run(context.Background(), a, c.steps+1); err != nil {
				t.Fatal(err)
			}
			if len(pool.idle) != 1 {
				t.Fatalf("run A left %d idle kits, want 1", len(pool.idle))
			}
			k := pool.idle[0]
			got, err := pool.run(context.Background(), c.b, c.steps)
			if err != nil {
				t.Fatal(err)
			}
			if len(pool.idle) != 1 || pool.idle[0] != k {
				t.Fatal("run B did not run on run A's kit")
			}
			want, err := newTestPool().run(context.Background(), c.b, c.steps)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := reportBits(t, got), reportBits(t, want); g != w {
				t.Fatalf("report on a used kit differs from a new kit's:\n got  %.600s\n want %.600s", g, w)
			}
		})
	}
}

// TestKitKeySeparatesShapes: two runs that differ in one field construction
// reads never share a kit.  Each variant runs after the base config on one
// pool, must build its own kit and must equal its fresh run.
func TestKitKeySeparatesShapes(t *testing.T) {
	base := testConfig(2, 2, FilterFFTBalanced)
	base.PhysicsScheme, base.PhysicsRounds = physics.Pairwise, 2
	variants := map[string]func(c *Config){
		"grid":     func(c *Config) { c.Spec.Nlayers = 4 },
		"machine":  func(c *Config) { c.Machine = machine.CrayT3D() },
		"model":    func(c *Config) { m := *c.Machine; m.Latency *= 2; c.Machine = &m },
		"mesh":     func(c *Config) { c.MeshPy, c.MeshPx = 1, 4 },
		"filter":   func(c *Config) { c.Filter = FilterFFT },
		"scheme":   func(c *Config) { c.PhysicsScheme = physics.Greedy },
		"rounds":   func(c *Config) { c.PhysicsRounds = 3 },
		"dt":       func(c *Config) { c.Dt = 0.9 * 86400 / float64(base.StepsPerDay()) },
		"vertical": func(c *Config) { c.VerticalDiffusion = 0.2 },
		"degraded": func(c *Config) { c.DegradeRank, c.DegradeFactor = 3, 2 },
	}
	for name, vary := range variants {
		t.Run(name, func(t *testing.T) {
			cfg := base
			vary(&cfg)
			pool := newTestPool()
			if _, err := pool.run(context.Background(), base, 2); err != nil {
				t.Fatal(err)
			}
			got, err := pool.run(context.Background(), cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(pool.idle) != 2 {
				t.Fatalf("the variant ran on the base config's kit: %d idle kits, want 2", len(pool.idle))
			}
			want, err := newTestPool().run(context.Background(), cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := reportBits(t, got), reportBits(t, want); g != w {
				t.Fatalf("variant differs from its fresh run:\n got  %.600s\n want %.600s", g, w)
			}
		})
	}
}

// TestKitDroppedOnFailure: a run that crashes under an injected fault, is
// cancelled, or fails restoring a checkpoint drops its kit, and the next run
// of the shape equals a fresh one.
func TestKitDroppedOnFailure(t *testing.T) {
	base := testConfig(2, 2, FilterFFTBalanced)
	base.PhysicsScheme = physics.Pairwise
	want, err := newTestPool().run(context.Background(), base, 2)
	if err != nil {
		t.Fatal(err)
	}
	crash := base
	crash.Fault = &fault.Spec{Crashes: []fault.Crash{{Rank: 1, At: 0.5 * want.Raw.MaxClock()}}}
	badFile, err := Snapshot(Config{Spec: grid.Spec{Nlon: 24, Nlat: 12, Nlayers: 3}, Machine: machine.Paragon(), MeshPy: 1, MeshPx: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	restore := base
	restore.InitialState = badFile
	failures := map[string]func(pool *kitPool) error{
		"crash": func(pool *kitPool) error {
			_, err := pool.run(context.Background(), crash, 2)
			return err
		},
		"cancel": func(pool *kitPool) error {
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			defer cancel()
			_, err := pool.run(ctx, base, 100000)
			if !errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("err = %v, want DeadlineExceeded", err)
			}
			return err
		},
		"restore": func(pool *kitPool) error {
			_, err := pool.run(context.Background(), restore, 2)
			return err
		},
	}
	for name, fail := range failures {
		t.Run(name, func(t *testing.T) {
			pool := newTestPool()
			if _, err := pool.run(context.Background(), base, 2); err != nil {
				t.Fatal(err)
			}
			k := pool.idle[0]
			if err := fail(pool); err == nil {
				t.Fatal("the failing run succeeded")
			}
			if len(pool.idle) != 0 || pool.bytes != 0 {
				t.Fatalf("failed run returned its kit: %d idle, %d bytes", len(pool.idle), pool.bytes)
			}
			got, err := pool.run(context.Background(), base, 2)
			if err != nil {
				t.Fatal(err)
			}
			if pool.idle[0] == k {
				t.Fatal("the failed run's kit came back")
			}
			if g, w := reportBits(t, got), reportBits(t, want); g != w {
				t.Fatalf("run after a failed one differs from a fresh run:\n got  %.600s\n want %.600s", g, w)
			}
		})
	}
}

// TestKitPoolBudget: whatever is returned and checked out, the idle kits'
// bytes never exceed the budget, the least recently returned go first, a
// kit larger than the budget is never kept, and checkout hands out the most
// recently returned kit of its key.
func TestKitPoolBudget(t *testing.T) {
	const budget = 1000
	pool := &kitPool{budget: budget}
	key := func(i int) kitKey { return kitKey{py: i} }
	check := func(step string) {
		t.Helper()
		var sum int64
		for _, k := range pool.idle {
			sum += k.bytes
		}
		if sum != pool.bytes || pool.bytes > budget {
			t.Fatalf("%s: idle bytes %d (counted %d), budget %d", step, sum, pool.bytes, budget)
		}
	}
	a, b, c := &kit{key: key(1), bytes: 400}, &kit{key: key(1), bytes: 400}, &kit{key: key(2), bytes: 300}
	pool.put(a)
	pool.put(b)
	pool.put(c) // 1100: a, the least recently returned, goes
	check("evict")
	if len(pool.idle) != 2 || pool.idle[0] != b || pool.idle[1] != c {
		t.Fatalf("after eviction idle = %v, want [b c]", pool.idle)
	}
	pool.put(&kit{key: key(3), bytes: budget + 1})
	check("oversized")
	if len(pool.idle) != 2 {
		t.Fatal("a kit larger than the budget was kept")
	}
	pool.put(a)
	if got := pool.checkout(key(1), grid.Decomp{}); got != a {
		t.Fatal("checkout did not hand out the most recently returned kit of its key")
	}
	check("checkout")

	rng := rand.New(rand.NewSource(1))
	var out []*kit
	for i := 0; i < 2000; i++ {
		if len(out) > 0 && rng.Intn(2) == 0 {
			pool.put(out[len(out)-1])
			out = out[:len(out)-1]
		} else if len(pool.idle) > 0 && rng.Intn(2) == 0 {
			k := pool.idle[rng.Intn(len(pool.idle))]
			if got := pool.checkout(k.key, grid.Decomp{}); got.key != k.key {
				t.Fatalf("checkout of key %v returned key %v", k.key, got.key)
			}
		} else {
			out = append(out, &kit{key: key(rng.Intn(5)), bytes: int64(rng.Intn(budget + 200))})
		}
		check(fmt.Sprintf("op %d", i))
	}

	// The process budget holds the benchmark's three model kits at once,
	// or 32 serving kits.
	kb := func(spec grid.Spec, py, px int) int64 {
		d, err := grid.NewDecomp(spec, py, px)
		if err != nil {
			t.Fatal(err)
		}
		return kitBytes(d)
	}
	full := grid.TwoByTwoPointFive(9)
	if sum := 2*kb(full, 8, 30) + kb(full, 1, 1); sum > kitBudget {
		t.Errorf("the benchmark's model kits need %d bytes, budget %d", sum, kitBudget)
	}
	if serve := kb(grid.Spec{Nlon: 72, Nlat: 46, Nlayers: 5}, 2, 2); 32*serve > kitBudget {
		t.Errorf("32 serving kits need %d bytes, budget %d", 32*serve, kitBudget)
	}
}
