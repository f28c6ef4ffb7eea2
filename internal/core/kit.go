package core

// Warm machines.  Building a run's machine — the sim.Machine with its
// mailboxes, and per rank the communicators, the state and tendency fields,
// the filter's staging and the physics runner — costs far more allocation
// than the few steps a typical run integrates.  A kit is one such machine,
// built once per shape and kept between runs: a run checks a kit out of a
// bounded process-wide pool, resets its state in place, runs, and returns it.
//
// A kit is mutable and exclusive: one run at a time owns it.  That is the
// difference from the fill-only caches (package fillcache), whose values are
// read-only and shared by every rank of every run.  A run that fails — an
// error, a cancellation, an injected crash — drops its kit rather than
// return it, so no half-run state can reach a later run.

import (
	"fmt"
	"slices"
	"sync"

	"agcm/internal/comm"
	"agcm/internal/dynamics"
	"agcm/internal/filter"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/physics"
	"agcm/internal/sim"
)

// kitKey is everything building a kit reads, so runs with equal keys can
// share a kit.  The machine model is held by value: a caller may build a
// fresh *machine.Model per run.  InitWind, InitialState, the checkpoint and
// capture settings, EventLog, Fault, Topology and Placement are per-run
// settings, not part of the key.
type kitKey struct {
	spec          grid.Spec
	machine       machine.Model
	py, px        int
	filter        FilterVariant
	scheme        physics.Scheme
	rounds        int
	dt, kv        float64 // dt also fixes the physics model's steps per day
	degradeRank   int
	degradeFactor float64
}

// keyOf returns the key of a defaulted config.
func keyOf(cfg Config) kitKey {
	return kitKey{
		spec: cfg.Spec, machine: *cfg.Machine,
		py: cfg.MeshPy, px: cfg.MeshPx,
		filter: cfg.Filter, scheme: cfg.PhysicsScheme, rounds: cfg.PhysicsRounds,
		dt: cfg.Dt, kv: cfg.VerticalDiffusion,
		degradeRank: cfg.DegradeRank, degradeFactor: cfg.DegradeFactor,
	}
}

// kit is one built machine of one shape.  Each rank builds its part during
// the kit's first run and resets it at the start of every later one.
type kit struct {
	key   kitKey
	bytes int64 // estimated size, charged to the pool's budget while idle
	m     *sim.Machine
	ranks []rankKit
}

// rankKit is one rank's part of a kit; state is nil until the rank builds.
type rankKit struct {
	cart  *comm.Cart2D // cart.World is the rank's world communicator
	state *dynamics.State
	dyn   *dynamics.Dynamics
	phys  *physics.Runner
}

// newKit makes the machine of key's shape; the ranks build the rest.  The
// kit's cost models are its own copy of the key's.
func newKit(key kitKey, d grid.Decomp) *kit {
	ranks := key.py * key.px
	mod := key.machine
	models := make([]sim.CostModel, ranks)
	for i := range models {
		models[i] = &mod
	}
	if key.degradeRank >= 0 {
		models[key.degradeRank] = machine.Degraded(&mod, key.degradeFactor)
	}
	return &kit{key: key, bytes: kitBytes(d), m: sim.NewHeterogeneous(models), ranks: make([]rankKit, ranks)}
}

// rank returns the calling rank's part of the kit, as a new one would be:
// built on the kit's first run, reset on later ones.  Only the rank's own
// goroutine touches its part; the machine's Run orders one run's writes
// before the next run's reads.
func (k *kit) rank(p *sim.Proc, d grid.Decomp) (*rankKit, error) {
	rk := &k.ranks[p.Rank()]
	if rk.state != nil {
		rk.state.Reset()
		rk.phys.Reset()
		return rk, nil
	}
	key := k.key
	world := comm.World(p)
	cart := comm.NewCart2D(world, key.py, key.px)
	local := grid.NewLocal(d, cart.MyRow, cart.MyCol)
	var flt filter.Parallel
	switch key.filter {
	case FilterConvolutionRing:
		flt = filter.NewConvolution(cart, key.spec, local, filter.Ring)
	case FilterConvolutionTree:
		flt = filter.NewConvolution(cart, key.spec, local, filter.Tree)
	case FilterFFT:
		flt = filter.NewFFT(cart, key.spec, local, false)
	case FilterFFTBalanced:
		flt = filter.NewFFT(cart, key.spec, local, true)
	case FilterNone:
	case FilterPolarDiffusion:
		flt = filter.NewPolarDiffusion(cart, key.spec, local)
	case FilterFFTRowwise:
		flt = filter.NewRowwiseFFT(cart, key.spec, local)
	default:
		return nil, fmt.Errorf("core: unknown filter variant %d", key.filter)
	}
	dyn := dynamics.New(cart, key.spec, local, key.dt, flt)
	if key.kv > 0 {
		dyn.SetVerticalDiffusion(key.kv)
	}
	phys := physics.NewRunner(world, cart, local,
		physics.NewModel(key.spec, stepsPerDay(key.dt)), key.scheme, key.rounds)
	*rk = rankKit{cart: cart, state: dynamics.NewState(local), dyn: dyn, phys: phys}
	return rk, nil
}

// kitBytes estimates what a built kit of decomposition d holds: three times
// its ranks' eight halo-padded state fields and three halo-free tendency
// fields, for the fields themselves, the filter's staging and the rest, plus
// 64 KiB per rank for the mailboxes' warm buffers and the per-rank objects.
// It is above the measured size of the benchmark's shapes: 58.6 MiB against
// 50.6 for the 8x30 balanced-FFT kit, 58.6 against 24.0 for the 8x30
// convolution kit, 30.2 against 12.9 for the one-rank kit and 4.9 against
// 2.8 for a 2x2 serving kit of the 72x46x5 grid.
func kitBytes(d grid.Decomp) int64 {
	var floats int64
	for row := 0; row < d.Py; row++ {
		lat0, lat1 := d.LatRange(row)
		for col := 0; col < d.Px; col++ {
			lon0, lon1 := d.LonRange(col)
			nlat, nlon := int64(lat1-lat0), int64(lon1-lon0)
			floats += (8*(nlat+2)*(nlon+2) + 3*nlat*nlon) * int64(d.Spec.Nlayers)
		}
	}
	return 3*8*floats + int64(d.Py*d.Px)<<16
}

// kitBudget bounds the estimated bytes of the idle kits a process keeps:
// room for the benchmark's three model kits at once (147 MiB estimated,
// 88 MiB measured), or for 32 serving kits of its 2x2 shape.  Past it
// the least recently returned kits go.
const kitBudget = 160 << 20

// kitPool holds the idle kits.  A kit in use belongs to its run alone.
type kitPool struct {
	budget int64

	mu    sync.Mutex
	idle  []*kit // least recently returned first
	bytes int64  // the idle kits' estimates, summed; at most budget
}

// kits is the process-wide pool behind Run and RunContext.
var kits = &kitPool{budget: kitBudget}

// checkout takes the most recently returned idle kit of key out of the pool,
// or makes a new one.
func (pool *kitPool) checkout(key kitKey, d grid.Decomp) *kit {
	pool.mu.Lock()
	for i := len(pool.idle) - 1; i >= 0; i-- {
		if k := pool.idle[i]; k.key == key {
			pool.idle = slices.Delete(pool.idle, i, i+1)
			pool.bytes -= k.bytes
			pool.mu.Unlock()
			return k
		}
	}
	pool.mu.Unlock()
	return newKit(key, d)
}

// put returns a kit after a successful run and evicts the least recently
// returned kits until the idle ones fit the budget.  A kit larger than the
// whole budget, or one whose key no run can match (a NaN field), is dropped.
func (pool *kitPool) put(k *kit) {
	if k.bytes > pool.budget || k.key != k.key {
		return
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	pool.idle = append(pool.idle, k)
	pool.bytes += k.bytes
	for pool.bytes > pool.budget {
		pool.bytes -= pool.idle[0].bytes
		pool.idle = slices.Delete(pool.idle, 0, 1)
	}
}
