package main

// Layer probes: each layer measured from outside, by timing calls into its
// exported functions at the model workloads' sizes (the 144x90x9 grid, the
// 8x30 mesh, 144-point latitude circles).  A traced run makes all of them,
// whatever workload it was asked for.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"agcm/internal/comm"
	"agcm/internal/core"
	"agcm/internal/dynamics"
	"agcm/internal/experiments"
	"agcm/internal/fft"
	"agcm/internal/filter"
	"agcm/internal/frame"
	"agcm/internal/grid"
	"agcm/internal/history"
	"agcm/internal/loadbalance"
	"agcm/internal/machine"
	"agcm/internal/physics"
	"agcm/internal/roofline"
	"agcm/internal/server"
	"agcm/internal/sim"
)

const (
	probeMeshPy = 8
	probeMeshPx = 30
	probeNlon   = 144
	// The FFT filter's transpose moves about this many floats between each
	// pair of ranks of a mesh row (the row's ~300 filtered lines dealt over
	// 30 ranks, 5 longitudes each); the ring convolution's allgather
	// circulates each rank's whole segment of those lines.
	transposeFloats = 48
	allgatherFloats = 1440
)

// probeSizes scales the probes: the tier-1 test spends a fraction of the
// time a traced run does.
type probeSizes struct {
	budget time.Duration // per micro-benchmark
	rounds int           // collective rounds per simulated-machine probe
	fig1   int           // experiments.Figure1 repetitions (minimum taken)
}

func sizesFor(quick bool) probeSizes {
	if quick {
		return probeSizes{budget: 3 * time.Millisecond, rounds: 2, fig1: 1}
	}
	return probeSizes{budget: 40 * time.Millisecond, rounds: 8, fig1: 3}
}

// roundCost is what rank 0 measured per round between two barriers.
type roundCost struct{ ns, allocs float64 }

// timeRounds is called by every rank of a machine: one warm-up call of fn
// (pools, plan caches), then rounds calls between two barriers, timed on
// rank 0.  Allocations are process-wide, which is the machine alone here.
func timeRounds(world *comm.Comm, rounds int, out *roundCost, fn func()) {
	fn()
	world.Barrier()
	var before allocCounter
	var start time.Time
	if world.Rank() == 0 {
		before = readAllocs()
		start = time.Now()
	}
	for i := 0; i < rounds; i++ {
		fn()
	}
	world.Barrier()
	if world.Rank() == 0 {
		out.ns = float64(time.Since(start).Nanoseconds()) / float64(rounds)
		out.allocs = float64(readAllocs().since(before).mallocs) / float64(rounds)
	}
}

// onParagon runs body on every rank of an n-rank simulated Paragon.
func onParagon(n int, body func(p *sim.Proc) error) error {
	_, err := sim.New(n, machine.Paragon()).Run(body)
	return err
}

// onMesh runs body on every rank of the 8x30 mesh over the model grid.
func onMesh(body func(world *comm.Comm, cart *comm.Cart2D, local grid.Local) error) error {
	spec := grid.TwoByTwoPointFive(9)
	d, err := grid.NewDecomp(spec, probeMeshPy, probeMeshPx)
	if err != nil {
		return err
	}
	return onParagon(probeMeshPy*probeMeshPx, func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, probeMeshPy, probeMeshPx)
		return body(world, cart, grid.NewLocal(d, cart.MyRow, cart.MyCol))
	})
}

// layerProbes measures every workload-independent per-layer metric.
// physicsLoads are the 240 per-rank loads of an unbalanced run, the input
// the pairwise planner is timed on.
func layerProbes(quick bool, physicsLoads []float64) (map[string]float64, error) {
	sz := sizesFor(quick)
	out := make(map[string]float64)
	spec := grid.TwoByTwoPointFive(9)
	dt := 0.8 * dynamics.CFLTimeStep(spec, filter.Strong.CritLat())
	stepsPerDay := int(math.Ceil(86400 / dt))
	ranks := probeMeshPy * probeMeshPx
	var rc roundCost

	// --- sim ---
	out["sim.spawn_us_per_rank"] = perCall(sz.budget, func() {
		onParagon(ranks, func(*sim.Proc) error { return nil }) // an empty body cannot fail
	}) / float64(ranks) / 1e3

	const pingpongs = 2000
	var pingNS float64
	if err := onParagon(2, func(p *sim.Proc) error {
		data := make([]float64, probeNlon)
		buf := make([]float64, probeNlon)
		peer := 1 - p.Rank()
		start := time.Now()
		for i := 0; i < pingpongs; i++ {
			if p.Rank() == 0 {
				p.SendFloats(peer, 1, data, 8*probeNlon)
				buf = p.RecvFloatsInto(peer, 1, buf)
			} else {
				buf = p.RecvFloatsInto(peer, 1, buf)
				p.SendFloats(peer, 1, data, 8*probeNlon)
			}
		}
		if p.Rank() == 0 {
			pingNS = float64(time.Since(start).Nanoseconds()) / (2 * pingpongs)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	out["sim.pingpong_ns_per_msg"] = pingNS

	if err := onParagon(ranks, func(p *sim.Proc) error {
		data := make([]float64, probeNlon)
		buf := make([]float64, probeNlon)
		right, left := (p.Rank()+1)%ranks, (p.Rank()+ranks-1)%ranks
		timeRounds(comm.World(p), 10*sz.rounds, &rc, func() {
			p.SendFloatsCopy(right, 1, data, 8*probeNlon)
			buf = p.RecvFloatsInto(left, 1, buf)
		})
		return nil
	}); err != nil {
		return nil, err
	}
	out["sim.ring240_ns_per_msg"] = rc.ns / float64(ranks)

	if err := onParagon(1, func(p *sim.Proc) error {
		out["sim.compute_ns"] = perCall(sz.budget, func() {
			p.Timed("probe", func() { p.Compute(100) })
		})
		return nil
	}); err != nil {
		return nil, err
	}

	// --- comm ---
	if err := onParagon(ranks, func(p *sim.Proc) error {
		world := comm.World(p)
		data, sum := make([]float64, 8), make([]float64, 8)
		timeRounds(world, 4*sz.rounds, &rc, func() { sum = world.AllreduceInto(data, sum, comm.SumOp) })
		return nil
	}); err != nil {
		return nil, err
	}
	out["comm.allreduce240_us"] = rc.ns / 1e3
	out["comm.allreduce_allocs"] = rc.allocs

	var a2a, ag roundCost
	if err := onParagon(probeMeshPx, func(p *sim.Proc) error {
		row := comm.World(p)
		parts := make([][]float64, probeMeshPx)
		for i := range parts {
			parts[i] = make([]float64, transposeFloats)
		}
		recv := make([][]float64, probeMeshPx)
		timeRounds(row, 4*sz.rounds, &a2a, func() { recv = row.AlltoallvInto(parts, recv) })
		segment := make([]float64, allgatherFloats)
		all := make([][]float64, probeMeshPx)
		timeRounds(row, 4*sz.rounds, &ag, func() { all = row.AllgathervInto(segment, all) })
		return nil
	}); err != nil {
		return nil, err
	}
	out["comm.alltoallv30_us"] = a2a.ns / 1e3
	out["comm.allgatherv30_us"] = ag.ns / 1e3

	// --- grid, filter and physics across the 8x30 mesh ---
	var exchange, gather, applyFFT, applyConv, phys240 roundCost
	if err := onMesh(func(world *comm.Comm, cart *comm.Cart2D, local grid.Local) error {
		s := dynamics.NewState(local)
		dynamics.InitSolidBody(s, 20, 4)
		ex := grid.NewExchanger(cart)
		timeRounds(world, sz.rounds, &exchange, func() { ex.Exchange(s.U, s.V, s.H, s.T, s.Q) })
		timeRounds(world, sz.rounds, &gather, func() { ex.Gather(world, s.H) })

		vars := []filter.Variable{
			{Name: "u", Kind: filter.Strong, Field: s.U},
			{Name: "v", Kind: filter.Strong, Field: s.V},
			{Name: "h", Kind: filter.Strong, Field: s.H},
		}
		fftFilter := filter.NewFFT(cart, spec, local, true)
		timeRounds(world, sz.rounds, &applyFFT, func() { fftFilter.Apply(vars) })
		convFilter := filter.NewConvolution(cart, spec, local, filter.Ring)
		timeRounds(world, sz.rounds, &applyConv, func() { convFilter.Apply(vars) })

		runner := physics.NewRunner(world, cart, local, physics.NewModel(spec, stepsPerDay), physics.Pairwise, 2)
		step := 0
		timeRounds(world, sz.rounds, &phys240, func() {
			runner.Step(s.T, s.Q, step)
			step++
		})
		return nil
	}); err != nil {
		return nil, err
	}
	out["grid.exchange240_us"] = exchange.ns / 1e3
	out["grid.exchange_allocs"] = exchange.allocs
	out["grid.gather_ms"] = gather.ns / 1e6
	out["filter.apply240_fft_ms"] = applyFFT.ns / 1e6
	out["filter.apply240_conv_ms"] = applyConv.ns / 1e6
	out["physics.step240_ms"] = phys240.ns / 1e6
	out["physics.step240_allocs"] = phys240.allocs

	// --- dynamics, filter and physics on one rank ---
	var dynStep, physStep roundCost
	d1, err := grid.NewDecomp(spec, 1, 1)
	if err != nil {
		return nil, err
	}
	if err := onParagon(1, func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, 1, 1)
		local := grid.NewLocal(d1, 0, 0)
		s := dynamics.NewState(local)
		dynamics.InitSolidBody(s, 20, 4)

		// Sequential filters in place; a few passes keep the damped
		// wavenumbers far from the denormal range.
		vars := []filter.Variable{
			{Name: "u", Kind: filter.Strong, Field: s.U},
			{Name: "v", Kind: filter.Strong, Field: s.V},
			{Name: "h", Kind: filter.Strong, Field: s.H},
		}
		var seq roundCost
		timeRounds(world, 2, &seq, func() { filter.Sequential(spec, vars) })
		out["filter.sequential_ms"] = seq.ns / 1e6

		dyn := dynamics.New(cart, spec, local, dt, nil)
		timeRounds(world, sz.rounds/2+1, &dynStep, func() { dyn.Step(s) })

		model := physics.NewModel(spec, stepsPerDay)
		runner := physics.NewRunner(world, cart, local, model, physics.None, 1)
		step := 0
		timeRounds(world, sz.rounds/2+1, &physStep, func() {
			runner.Step(s.T, s.Q, step)
			step++
		})

		// Model.Compute mutates its column, so every column is rebuilt from
		// the field before it is computed; the copy is a few words.
		col := &physics.Column{T: make([]float64, spec.Nlayers), Q: make([]float64, spec.Nlayers)}
		start := time.Now()
		for j := 0; j < spec.Nlat; j++ {
			for i := 0; i < spec.Nlon; i++ {
				col.J, col.I = j, i
				copy(col.T, s.T.Column(j, i))
				copy(col.Q, s.Q.Column(j, i))
				model.Compute(col, 0)
			}
		}
		out["physics.column_ns"] = float64(time.Since(start).Nanoseconds()) / float64(spec.Nlat*spec.Nlon)
		return nil
	}); err != nil {
		return nil, err
	}
	out["dynamics.step_ms"] = dynStep.ns / 1e6
	out["dynamics.ns_per_point"] = dynStep.ns / float64(spec.Points())
	out["physics.step_ms"] = physStep.ns / 1e6

	// --- filter rows and fft at n = 144 ---
	lat := spec.LatCenter(spec.Nlat - 2)
	damp := filter.DampingRow(probeNlon, lat, filter.Strong.CritLat())
	coeffs := filter.Coefficients(damp)
	src := make([]float64, probeNlon)
	for i := range src {
		src[i] = math.Sin(float64(3*i)) + 0.5*math.Cos(float64(11*i))
	}
	row := make([]float64, probeNlon)
	plan := fft.GetPlan(probeNlon)
	out["filter.fft_row_ns"] = perCall(sz.budget, func() {
		copy(row, src) // filtering in place would damp the row into denormals
		filter.ApplyRowFFT(plan, damp, row)
	})
	out["filter.conv_row_ns"] = perCall(sz.budget, func() { filter.ApplyRowConvolution(coeffs, src, row, 0) })
	out["filter.lines_per_step"] = float64(filter.LineCount(spec, []filter.Kind{filter.Strong, filter.Strong, filter.Strong}))

	re, im := make([]float64, probeNlon), make([]float64, probeNlon)
	copy(re, src)
	complexNS := perCall(sz.budget, func() {
		plan.Forward(re, im)
		plan.Inverse(re, im)
	})
	fft.PutPlan(plan)
	out["fft.complex144_ns"] = complexNS
	out["fft.mflops"] = 2 * fft.Flops(probeNlon) / complexNS * 1e3
	realPlan := fft.GetRealPlan(probeNlon)
	copy(row, src)
	halfRe, halfIm := re[:probeNlon/2+1], im[:probeNlon/2+1]
	out["fft.real144_ns"] = perCall(sz.budget, func() {
		realPlan.Forward(row, halfRe, halfIm)
		realPlan.Inverse(halfRe, halfIm, row)
	})
	fft.PutRealPlan(realPlan)

	// --- loadbalance ---
	if len(physicsLoads) != ranks {
		return nil, fmt.Errorf("pairwise probe needs %d measured loads, got %d", ranks, len(physicsLoads))
	}
	perColumn := loadbalance.Average(physicsLoads) / float64(spec.Nlat*spec.Nlon/ranks)
	out["loadbalance.pairwise240_us"] = perCall(sz.budget, func() {
		loadbalance.Pairwise(physicsLoads, perColumn, 0, 2)
	}) / 1e3
	d240, err := grid.NewDecomp(spec, probeMeshPy, probeMeshPx)
	if err != nil {
		return nil, err
	}
	rowCounts := make([]int, probeMeshPy)
	for _, j := range filter.Rows(spec, filter.Strong) {
		rowCounts[d240.RowOfLat(j)] += 3 * spec.Nlayers
	}
	out["loadbalance.planrows_us"] = perCall(sz.budget, func() { loadbalance.PlanRows(rowCounts) }) / 1e3

	// --- history ---
	single, _ := modelConfig(SingleRank, 0)
	file, err := core.Snapshot(single, 1)
	if err != nil {
		return nil, err
	}
	checkpoint, err := history.EncodeFrame(file)
	if err != nil {
		return nil, err
	}
	out["history.checkpoint_bytes"] = float64(len(checkpoint))
	out["history.encode_ms"] = perCall(sz.budget, func() { history.EncodeFrame(file) }) / 1e6 // encoded once above without error
	if _, err := history.Read(bytes.NewReader(checkpoint)); err != nil {
		return nil, err
	}
	out["history.read_ms"] = perCall(sz.budget, func() { history.Read(bytes.NewReader(checkpoint)) }) / 1e6

	// --- core and roofline: the per-request bookkeeping around a run ---
	meshCfg, meshSteps := modelConfig(Mesh240FFT, 0)
	canonical, err := meshCfg.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	out["core.configkey_us"] = perCall(sz.budget, func() { meshCfg.ConfigKey() }) / 1e3 // canonicalised above without error
	out["core.parse_us"] = perCall(sz.budget, func() { core.ConfigFromCanonicalJSON(canonical) }) / 1e3
	host, err := roofline.NewMachine(roofline.DefaultHost())
	if err != nil {
		return nil, err
	}
	if _, err := host.PredictSeconds(meshCfg, meshSteps); err != nil {
		return nil, err
	}
	out["roofline.predict_us"] = perCall(sz.budget, func() { host.PredictSeconds(meshCfg, meshSteps) }) / 1e3

	// --- experiments: continuity with BENCH_3's Fig1Breakdown ---
	bestNS, bestAllocs := math.Inf(1), math.Inf(1)
	for i := 0; i < sz.fig1; i++ {
		before := readAllocs()
		start := time.Now()
		if _, err := experiments.Figure1(experiments.Options{MeasuredSteps: 1}); err != nil {
			return nil, err
		}
		bestNS = math.Min(bestNS, float64(time.Since(start).Nanoseconds()))
		bestAllocs = math.Min(bestAllocs, float64(readAllocs().since(before).mallocs))
	}
	out["experiments.fig1_ms"] = bestNS / 1e6
	out["experiments.fig1_allocs"] = bestAllocs
	return out, nil
}

// bodyWriter is an http.ResponseWriter that passes the body to w and keeps
// nothing else.
type bodyWriter struct {
	h http.Header
	w io.Writer
}

func (b *bodyWriter) Header() http.Header         { return b.h }
func (b *bodyWriter) Write(p []byte) (int, error) { return b.w.Write(p) }
func (b *bodyWriter) WriteHeader(int)             {}

// rewindBody is a request body that can be read again after Reset.
type rewindBody struct{ strings.Reader }

func (*rewindBody) Close() error { return nil }

// serverProbes measures the server's cached-key path and the frame layer on
// a real response frame, against a stack whose cache is filled.
func serverProbes(st *stack, in *serveInput) (map[string]float64, error) {
	sz := sizesFor(false)
	out := make(map[string]float64)
	key := in.keys[0]
	handler := st.srv.Handler()

	// The cached-key path of POST /v1/run, without sockets: what the
	// handler itself allocates per hit.
	body := &rewindBody{}
	req, err := http.NewRequest(http.MethodPost, "/v1/run", body)
	if err != nil {
		return nil, err
	}
	w := &bodyWriter{h: make(http.Header), w: io.Discard}
	out["server.hit_allocs"] = testing.AllocsPerRun(200, func() {
		body.Reset(key.body)
		clear(w.h)
		handler.ServeHTTP(w, req)
	})

	cfg, err := in.class.Config(key.pool)
	if err != nil {
		return nil, err
	}
	if _, err := server.JobKeyFor(cfg, serveSteps); err != nil {
		return nil, err
	}
	out["server.jobkey_us"] = perCall(sz.budget, func() { server.JobKeyFor(cfg, serveSteps) }) / 1e3

	// The response frame, as a frame client receives it.
	var frameBytes bytes.Buffer
	frameReq, err := http.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(key.body))
	if err != nil {
		return nil, err
	}
	frameReq.Header.Set("Accept", server.FrameContentType)
	handler.ServeHTTP(&bodyWriter{h: make(http.Header), w: &frameBytes}, frameReq)
	raw := frameBytes.Bytes()
	out["frame.response_bytes"] = float64(len(raw))
	parsed, err := frame.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("response frame: %w", err)
	}
	out["frame.parse_ns"] = perCall(sz.budget, func() {
		if f, err := frame.Parse(raw); err == nil {
			f.Section(1)
		}
	})
	// Re-encoding the parsed sections yields the same canonical bytes.
	encode := func() ([]byte, error) {
		var b frame.Builder
		for i := 0; i < parsed.Sections(); i++ {
			tag := parsed.TagAt(i)
			payload, _ := parsed.Section(tag) // TagAt just listed the tag
			b.AddSection(tag, payload)
		}
		return b.Finish(parsed.Type())
	}
	if again, err := encode(); err != nil || !bytes.Equal(again, raw) {
		return nil, fmt.Errorf("re-encoding the response frame did not reproduce it (%v)", err)
	}
	out["frame.encode_us"] = perCall(sz.budget, func() { encode() }) / 1e3

	dir, err := os.MkdirTemp(st.dir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := frame.OpenStore(dir, 0)
	if err != nil {
		return nil, err
	}
	if err := store.Put(key.jobKey, raw); err != nil {
		return nil, err
	}
	out["frame.store_put_us"] = perCall(sz.budget, func() { store.Put(key.jobKey, raw) }) / 1e3
	out["frame.store_get_us"] = perCall(sz.budget, func() { store.Get(key.jobKey) }) / 1e3
	return out, nil
}
