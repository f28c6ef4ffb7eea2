// Package core assembles the full parallel AGCM: the C-grid dynamical core,
// the polar spectral filter (in any of the paper's variants), the column
// physics with optional load balancing, and the virtual-time machine — and
// reports per-component timings in the paper's unit, seconds per simulated
// day.  This is the package the command-line tools, the examples and the
// benchmark harness drive.
package core

import (
	"context"
	"fmt"
	"math"

	"agcm/internal/dynamics"
	"agcm/internal/fault"
	"agcm/internal/filter"
	"agcm/internal/grid"
	"agcm/internal/history"
	"agcm/internal/loadbalance"
	"agcm/internal/machine"
	"agcm/internal/physics"
	"agcm/internal/sim"
	"agcm/internal/topology"
)

// FilterVariant selects the spectral-filtering implementation.
type FilterVariant int

const (
	// FilterConvolutionRing is the original code's physical-space
	// convolution with ring data motion.
	FilterConvolutionRing FilterVariant = iota
	// FilterConvolutionTree is the original convolution with binary-tree
	// data motion.
	FilterConvolutionTree
	// FilterFFT is the transpose-based FFT filter without load balancing.
	FilterFFT
	// FilterFFTBalanced is the paper's load-balanced FFT filter.
	FilterFFTBalanced
	// FilterNone disables filtering (numerically unstable at full time
	// steps; useful only for demonstrations with reduced dt).
	FilterNone
	// FilterPolarDiffusion replaces spectral filtering with implicit
	// zonal diffusion solved by the distributed periodic tridiagonal
	// solver — the Section 5 "implicit time-differencing" alternative.
	FilterPolarDiffusion
	// FilterFFTRowwise is Section 3.2's approach 1 — the parallel 1-D
	// FFT within mesh rows (allgather + redundant transforms) — that the
	// paper analysed and rejected in favour of the transpose.
	FilterFFTRowwise
)

// String returns the variant name used in reports.
func (v FilterVariant) String() string {
	switch v {
	case FilterConvolutionRing:
		return "convolution-ring"
	case FilterConvolutionTree:
		return "convolution-tree"
	case FilterFFT:
		return "fft"
	case FilterFFTBalanced:
		return "fft-load-balanced"
	case FilterNone:
		return "none"
	case FilterPolarDiffusion:
		return "polar-implicit-diffusion"
	case FilterFFTRowwise:
		return "fft-rowwise"
	}
	return fmt.Sprintf("FilterVariant(%d)", int(v))
}

// Config describes one AGCM run.
type Config struct {
	// Spec is the global grid; the paper's standard is
	// grid.TwoByTwoPointFive(9) or (15).
	Spec grid.Spec
	// Machine is the simulated computer (machine.Paragon() etc.).
	Machine *machine.Model
	// MeshPy x MeshPx is the processor mesh (latitude x longitude).
	MeshPy, MeshPx int
	// Filter selects the spectral-filter variant.
	Filter FilterVariant
	// PhysicsScheme and PhysicsRounds configure physics load balancing.
	PhysicsScheme physics.Scheme
	PhysicsRounds int
	// Dt is the time step in seconds; 0 derives it from the CFL limit at
	// the strong filter's critical latitude (the filter's whole point).
	Dt float64
	// InitWind is the initial jet speed in m/s (default 20).
	InitWind float64
	// VerticalDiffusion is the dimensionless implicit vertical mixing
	// number per step (0 = off); solved per column with the Thomas
	// algorithm.
	VerticalDiffusion float64
	// WarmupSteps are integrated but excluded from timing (leapfrog
	// startup, physics load-estimate priming).  Default 2; a negative
	// value disables warmup entirely (used when continuing from a
	// checkpoint, where re-warming would integrate extra steps) and stays
	// negative through Normalized — 0 would read as "default" the second
	// time — so count warmup steps as max(WarmupSteps, 0).
	WarmupSteps int
	// DegradeRank, if >= 0, slows that one rank's processor by
	// DegradeFactor (> 1) — the hardware-heterogeneity scenario for the
	// load-balancing experiments.
	DegradeRank   int
	DegradeFactor float64
	// EventLog records a per-rank event timeline on Report.Raw for the
	// trace package's Chrome-trace export.
	EventLog bool
	// InitialState, if non-nil, restores a checkpoint (written by a
	// previous run's CaptureState) instead of the analytic initial
	// condition.  The grid must match.
	InitialState *history.File
	// CaptureState gathers the full final model state into
	// Report.FinalState for checkpointing.
	CaptureState bool
	// CheckpointEvery > 0 saves a full-state checkpoint every that many
	// measured steps; completed checkpoints appear on Report.Checkpoints
	// (oldest first) even when the run itself fails, which is what makes
	// crash recovery possible.
	CheckpointEvery int
	// Fault optionally injects a deterministic failure scenario
	// (slowdowns, jitter, drops, crashes) into the simulated machine.
	// All faults are scheduled in virtual time from the spec's seed, so
	// a faulty run is exactly as reproducible as a healthy one.
	Fault *fault.Spec
	// Topology, when non-empty and not "none", replaces the flat network
	// with a routed interconnect model (see topology.ByName): "auto" picks
	// the machine's historical topology, or name one explicitly ("mesh",
	// "mesh:XxY", "torus", "torus:XxYxZ", "switch").  The routed model
	// charges hop latency and injection-port queueing per message; with
	// EventLog, Report.Network.Contend replays per-link traffic.
	Topology string
	// Placement lays the ranks out on the topology's nodes (see
	// topology.PlacementByName): "rowmajor" (default), "snake", "blocked"
	// or "perm:n0,n1,...".  Ignored without a Topology.
	Placement string
}

// withDefaults fills derived and defaulted fields.  Every value it writes is
// one it leaves alone on a second pass, so it is idempotent.
func (c Config) withDefaults() (Config, error) {
	if err := c.Spec.Validate(); err != nil {
		return c, err
	}
	if c.Machine == nil {
		return c, fmt.Errorf("core: nil machine model")
	}
	if err := c.Machine.Validate(); err != nil {
		return c, err
	}
	if c.MeshPy < 1 || c.MeshPx < 1 {
		return c, fmt.Errorf("core: invalid mesh %dx%d", c.MeshPy, c.MeshPx)
	}
	if c.Dt == 0 {
		c.Dt = 0.8 * dynamics.CFLTimeStep(c.Spec, filter.Strong.CritLat())
	}
	if c.Dt <= 0 {
		return c, fmt.Errorf("core: invalid dt %g", c.Dt)
	}
	if c.InitWind == 0 {
		c.InitWind = 20
	}
	if c.WarmupSteps == 0 {
		c.WarmupSteps = 2
	}
	if c.WarmupSteps < 0 {
		c.WarmupSteps = -1
	}
	if c.Fault != nil {
		if err := c.Fault.Validate(); err != nil {
			return c, err
		}
		for _, r := range c.Fault.Ranks() {
			if r >= c.MeshPy*c.MeshPx {
				return c, fmt.Errorf("core: fault spec names rank %d outside the %dx%d mesh",
					r, c.MeshPy, c.MeshPx)
			}
		}
	}
	if c.PhysicsRounds < 0 || c.PhysicsRounds > physics.MaxRounds {
		return c, fmt.Errorf("core: physics rounds %d outside 0..%d (0 = default 2)", c.PhysicsRounds, physics.MaxRounds)
	}
	if c.PhysicsRounds == 0 {
		c.PhysicsRounds = 2
	}
	if c.DegradeFactor == 0 {
		c.DegradeRank = -1
	}
	if c.DegradeRank >= c.MeshPy*c.MeshPx {
		return c, fmt.Errorf("core: degraded rank %d outside mesh", c.DegradeRank)
	}
	if c.DegradeRank >= 0 && c.DegradeFactor <= 1 {
		return c, fmt.Errorf("core: degrade factor must exceed 1, got %g", c.DegradeFactor)
	}
	return c, nil
}

// StepsPerDay returns the number of time steps in one simulated day for the
// configured (or derived) dt.
func (c Config) StepsPerDay() int {
	cfg, err := c.withDefaults()
	if err != nil {
		return 0
	}
	return stepsPerDay(cfg.Dt)
}

// stepsPerDay is the number of steps of length dt in one simulated day.
func stepsPerDay(dt float64) int { return int(math.Ceil(86400 / dt)) }

// Report holds the timing results of a run, in the paper's unit of
// seconds per simulated day of the slowest rank (the critical path).
type Report struct {
	Config      Config
	Ranks       int
	Steps       int // measured steps (after warmup)
	StepsPerDay int

	// Component times in seconds/simulated-day: FilterTime + FDTime +
	// CommTime make up Dynamics; Total adds Physics and any slack.
	FilterTime  float64
	FDTime      float64
	CommTime    float64
	Dynamics    float64
	PhysicsTime float64
	Total       float64

	// PhysicsLoads is the per-rank physics time (seconds/day), the input
	// to the paper's Tables 1-3 style imbalance analysis.
	PhysicsLoads []float64
	// FilterLoads is the per-rank filter time (seconds/day).
	FilterLoads []float64

	// MessagesPerStep and BytesPerStep are the machine-wide
	// point-to-point traffic per time step — the quantities the paper's
	// Section 3 complexity analysis counts for each algorithm.
	MessagesPerStep float64
	BytesPerStep    float64
	// MaxWaitShare is the largest per-rank fraction of measured time
	// spent blocked on unarrived messages (latency + imbalance idling).
	MaxWaitShare float64

	// MaxAbsH is the final max |h| as a stability diagnostic.
	MaxAbsH float64

	// FinalState is the gathered model state when Config.CaptureState
	// was set (nil otherwise); feed it back via Config.InitialState to
	// continue the run.
	FinalState *history.File

	// Checkpoints holds the periodic checkpoints taken when
	// Config.CheckpointEvery was set, oldest first.  Only checkpoints
	// that completed their collective gather appear here, so after a
	// crash the last entry is always a consistent restart point.
	Checkpoints []*history.File

	// Raw is the underlying simulation result (clocks, accounts,
	// traffic), for the trace package's utilization views.
	Raw *sim.Result

	// Network is the routed interconnect model when Config.Topology was
	// set (nil otherwise).  With Config.EventLog, Network.Contend replays
	// the run's messages into per-link transfers, bytes, busy time and
	// stall time.
	Network *topology.Network
}

// Imbalance returns (max-avg)/avg of a load vector (paper's definition).
func Imbalance(loads []float64) float64 { return loadbalance.Imbalance(loads) }

// Run integrates the model for measuredSteps time steps (after warmup) on
// the simulated machine and returns per-component timings extrapolated to
// seconds per simulated day.
func Run(cfg Config, measuredSteps int) (*Report, error) {
	//lint:allow ctxflow Run is the deliberately deadline-free entry point; callers needing cancellation use RunContext
	return RunContext(context.Background(), cfg, measuredSteps)
}

// RunContext is Run under a deadline: when ctx is cancelled or expires the
// virtual machine shuts down at the ranks' next communication points and
// RunContext returns a *sim.CanceledError (errors.Is-able against
// context.Canceled / context.DeadlineExceeded).  As with an injected crash,
// the partial Report still carries any checkpoints that completed before the
// cancellation, so a timed-out run can be resumed rather than redone.
//
// The machine comes from a process-wide pool of warm kits (see kit.go): the
// first run of a shape builds it, later runs of the shape reset it in place.
// Either way the Report is bit for bit the same.
func RunContext(ctx context.Context, cfg Config, measuredSteps int) (*Report, error) {
	return kits.run(ctx, cfg, measuredSteps)
}

// run is RunContext on a kit from pool.
func (pool *kitPool) run(ctx context.Context, cfg Config, measuredSteps int) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if measuredSteps < 1 {
		return nil, fmt.Errorf("core: need at least one measured step")
	}
	d, err := grid.NewDecomp(cfg.Spec, cfg.MeshPy, cfg.MeshPx)
	if err != nil {
		return nil, err
	}
	ranks := cfg.MeshPy * cfg.MeshPx
	stepsPerDay := stepsPerDay(cfg.Dt)
	// Measured virtual times scale to seconds/simulated-day.
	scale := float64(stepsPerDay) / float64(measuredSteps)

	type snapshot struct {
		clock    float64
		messages int64
		bytes    int64
		wait     float64
	}
	warm := make([]snapshot, ranks)
	// Each rank's measured time per reported phase, scaled.
	filterLoads, fd := make([]float64, ranks), make([]float64, ranks)
	cm, physLoads := make([]float64, ranks), make([]float64, ranks)
	maxAbsH := make([]float64, ranks)
	var finalState *history.File
	// All ranks must agree on whether to run the LoadState collective;
	// only rank 0 holds the file itself.
	restoreAny := cfg.InitialState != nil

	// The route model and the fault hook are this run's own; a nil pointer
	// must reach the machine as a nil interface.
	var network *topology.Network
	var route sim.RouteModel
	if cfg.Topology != "" && cfg.Topology != "none" {
		topo, err := topology.ByName(cfg.Topology, cfg.Machine.Name, ranks)
		if err != nil {
			return nil, err
		}
		place, err := topology.PlacementByName(cfg.Placement, topo)
		if err != nil {
			return nil, err
		}
		network, err = topology.NewNetwork(topo, place, cfg.Machine)
		if err != nil {
			return nil, err
		}
		route = network
	} else if cfg.Placement != "" {
		return nil, fmt.Errorf("core: placement %q needs a topology", cfg.Placement)
	}
	var hook sim.FaultHook
	if !cfg.Fault.Empty() {
		hook = fault.NewInjector(cfg.Fault)
	}

	k := pool.checkout(keyOf(cfg), d)
	m := k.m
	m.SetEventLog(cfg.EventLog)
	m.SetRouteModel(route)
	m.SetFaultHook(hook)
	// Only rank 0's goroutine appends; the main goroutine reads after the
	// machine's WaitGroup establishes the happens-before edge.
	var checkpoints []*history.File
	res, err := m.RunContext(ctx, func(p *sim.Proc) error {
		rk, err := k.rank(p, d)
		if err != nil {
			return err
		}
		cart, state, dyn, phys := rk.cart, rk.state, rk.dyn, rk.phys
		world := cart.World
		dynamics.InitSolidBody(state, cfg.InitWind, 4)
		if restoreAny {
			var file *history.File
			if world.Rank() == 0 {
				file = cfg.InitialState
			}
			if err := dynamics.LoadState(world, cart, file, state); err != nil {
				return err
			}
		}

		// The physics phase index is the state's own step counter rather
		// than a run-local loop index, so a run continued from a restored
		// checkpoint sees the same solar geometry and cloud epochs as the
		// uninterrupted run it resumes (state.Steps-1 equals the old
		// loop index on a fresh start, leaving healthy runs bit-identical).
		step := func() {
			dyn.Step(state)
			p.Account(sim.Physics, func() { phys.Step(state.T, state.Q, state.Steps-1) })
		}
		for n := 0; n < cfg.WarmupSteps; n++ {
			step()
		}
		warm[world.Rank()] = snapshot{
			clock:    p.Clock(),
			messages: p.MessagesSent(),
			bytes:    p.BytesSent(),
			wait:     p.WaitSeconds(),
		}
		var warmAccounts [sim.NumPhases]float64
		for ph := range warmAccounts {
			warmAccounts[ph] = p.Accounted(sim.Phase(ph))
		}
		for n := 0; n < measuredSteps; n++ {
			step()
			if cfg.CheckpointEvery > 0 && (n+1)%cfg.CheckpointEvery == 0 {
				if f := dynamics.SaveState(world, cart, state); world.Rank() == 0 {
					checkpoints = append(checkpoints, f)
				}
			}
		}
		// A phase nothing accounted to (e.g. Filter under FilterNone)
		// reads zero.
		measured := func(ph sim.Phase) float64 { return (p.Accounted(ph) - warmAccounts[ph]) * scale }
		r := world.Rank()
		filterLoads[r], fd[r] = measured(sim.Filter), measured(sim.DynamicsFD)
		cm[r], physLoads[r] = measured(sim.DynamicsComm), measured(sim.Physics)
		maxAbsH[r] = state.H.MaxAbs()
		if cfg.CaptureState {
			if f := dynamics.SaveState(world, cart, state); world.Rank() == 0 {
				finalState = f
			}
		}
		return nil
	})
	if err != nil {
		// A failed run (e.g. an injected crash) still surfaces whatever
		// checkpoints completed, so the caller can restart from the last
		// one; the timing fields are meaningless and stay zero.  Its kit
		// is dropped, not returned: whatever state the failure left behind
		// goes with it.
		return &Report{
			Config:      cfg,
			Raw:         res,
			Ranks:       ranks,
			StepsPerDay: stepsPerDay,
			Checkpoints: checkpoints,
			Network:     network,
		}, err
	}
	pool.put(k)

	maxOf := func(v []float64) float64 {
		max := 0.0
		for _, x := range v {
			if x > max {
				max = x
			}
		}
		return max
	}
	// Per-rank Dynamics time, then critical path across ranks.
	dynLoads := make([]float64, ranks)
	totalLoads := make([]float64, ranks)
	for r := 0; r < ranks; r++ {
		dynLoads[r] = filterLoads[r] + fd[r] + cm[r]
		totalLoads[r] = (res.Clocks[r] - warm[r].clock) * scale
	}

	var msgs, bts float64
	maxWaitShare := 0.0
	for r := 0; r < ranks; r++ {
		msgs += float64(res.MessagesSent[r] - warm[r].messages)
		bts += float64(res.BytesSent[r] - warm[r].bytes)
		if span := res.Clocks[r] - warm[r].clock; span > 0 {
			if share := (res.WaitSeconds[r] - warm[r].wait) / span; share > maxWaitShare {
				maxWaitShare = share
			}
		}
	}

	rep := &Report{
		Config:          cfg,
		Raw:             res,
		Ranks:           ranks,
		Steps:           measuredSteps,
		StepsPerDay:     stepsPerDay,
		MessagesPerStep: msgs / float64(measuredSteps),
		BytesPerStep:    bts / float64(measuredSteps),
		MaxWaitShare:    maxWaitShare,
		FilterTime:      maxOf(filterLoads),
		FDTime:          maxOf(fd),
		CommTime:        maxOf(cm),
		Dynamics:        maxOf(dynLoads),
		PhysicsTime:     maxOf(physLoads),
		Total:           maxOf(totalLoads),
		PhysicsLoads:    physLoads,
		FilterLoads:     filterLoads,
		MaxAbsH:         maxOf(maxAbsH),
		FinalState:      finalState,
		Checkpoints:     checkpoints,
		Network:         network,
	}
	return rep, nil
}

// Snapshot runs the model for `steps` (at least one) steps on a 1x1 mesh and
// returns a history file of the prognostic fields — a convenience for examples
// and round-trip tests of the history IO.  Of cfg it reads the grid, the
// machine, dt and the initial wind; the run itself is the balanced FFT
// filter without physics balancing or warmup, on a kit of its own that no
// later run reuses.
func Snapshot(cfg Config, steps int) (*history.File, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	//lint:allow ctxflow Snapshot is deadline-free like Run
	rep, err := (&kitPool{}).run(context.Background(), Config{
		Spec: cfg.Spec, Machine: cfg.Machine, MeshPy: 1, MeshPx: 1,
		Filter: FilterFFTBalanced, PhysicsScheme: physics.None, PhysicsRounds: 1,
		Dt: cfg.Dt, InitWind: cfg.InitWind, WarmupSteps: -1, CaptureState: true,
	}, steps)
	if err != nil {
		return nil, err
	}
	file := rep.FinalState
	clear(file.Data[5:])                                  // the leapfrog's previous level goes with the run
	file.Names, file.Data = file.Names[:5], file.Data[:5] // u, v, h, T, q
	return file, nil
}
