package physics

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"agcm/internal/comm"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/sim"
)

const stepsPerDay = 48

func testColumn(spec grid.Spec, j, i int) *Column {
	lat := spec.LatCenter(j)
	k := spec.Nlayers
	c := &Column{J: j, I: i, T: make([]float64, k), Q: make([]float64, k)}
	for kk := 0; kk < k; kk++ {
		c.T[kk] = 288 - 60*math.Sin(lat)*math.Sin(lat) - 6*float64(kk)
		c.Q[kk] = 0.015 * math.Cos(lat) * math.Exp(-0.4*float64(kk))
	}
	return c
}

// testFields returns T and Q fields over the subdomain holding testColumn's
// profile at every point.
func testFields(spec grid.Spec, l grid.Local) (T, Q *grid.Field) {
	T, Q = grid.NewField(l, 1), grid.NewField(l, 1)
	for j := 0; j < l.Nlat(); j++ {
		for i := 0; i < l.Nlon(); i++ {
			ref := testColumn(spec, l.GlobalLat(j), l.GlobalLon(i))
			copy(T.Column(j, i), ref.T)
			copy(Q.Column(j, i), ref.Q)
		}
	}
	return T, Q
}

func TestNoise01Range(t *testing.T) {
	for j := 0; j < 50; j++ {
		for i := 0; i < 50; i += 7 {
			v := noise01(j, i, 3)
			if v < 0 || v >= 1 {
				t.Fatalf("noise01(%d,%d,3) = %g", j, i, v)
			}
		}
	}
	if noise01(3, 4, 5) != noise01(3, 4, 5) {
		t.Fatal("noise01 not deterministic")
	}
	if noise01(3, 4, 5) == noise01(3, 4, 6) && noise01(1, 1, 1) == noise01(1, 1, 2) {
		t.Fatal("noise01 ignores the epoch")
	}
}

func TestComputeDeterministic(t *testing.T) {
	spec := grid.TwoByTwoPointFive(9)
	m := NewModel(spec, stepsPerDay)
	a := testColumn(spec, 45, 10)
	b := testColumn(spec, 45, 10)
	fa := m.Compute(a, 7)
	fb := m.Compute(b, 7)
	if fa != fb {
		t.Fatalf("flops differ: %g vs %g", fa, fb)
	}
	for k := range a.T {
		if a.T[k] != b.T[k] || a.Q[k] != b.Q[k] {
			t.Fatalf("profiles differ at layer %d", k)
		}
	}
}

func TestDaylightCostsMore(t *testing.T) {
	spec := grid.TwoByTwoPointFive(9)
	m := NewModel(spec, stepsPerDay)
	// Two equatorial columns on opposite sides of the planet: one is in
	// daylight, the other in darkness at any step.
	c1 := testColumn(spec, 45, 0)
	c2 := testColumn(spec, 45, spec.Nlon/2)
	f1 := m.EstimateFlops(c1, 0)
	f2 := m.EstimateFlops(c2, 0)
	day, night := f1, f2
	if m.CosZenith(c1, 0) < m.CosZenith(c2, 0) {
		day, night = f2, f1
	}
	if day <= night {
		t.Fatalf("daylight column (%g flops) not costlier than night (%g)", day, night)
	}
}

func TestTropicsCostMoreThanPoles(t *testing.T) {
	spec := grid.TwoByTwoPointFive(9)
	m := NewModel(spec, stepsPerDay)
	// Average over a full day to remove the day/night phase.
	avg := func(j int) float64 {
		var sum float64
		for step := 0; step < stepsPerDay; step++ {
			sum += m.EstimateFlops(testColumn(spec, j, 7), step)
		}
		return sum / stepsPerDay
	}
	tropics := avg(spec.Nlat / 2)
	pole := avg(1)
	if tropics <= pole {
		t.Fatalf("tropical column (%g flops) not costlier than polar (%g)", tropics, pole)
	}
}

func TestComputeKeepsProfilesBounded(t *testing.T) {
	spec := grid.TwoByTwoPointFive(9)
	m := NewModel(spec, stepsPerDay)
	c := testColumn(spec, 50, 20)
	for step := 0; step < 500; step++ {
		m.Compute(c, step)
	}
	for k, v := range c.T {
		if v < 150 || v > 400 {
			t.Fatalf("T[%d] = %g K after 500 steps", k, v)
		}
	}
	for k, v := range c.Q {
		if v < 0 || v > 0.05 {
			t.Fatalf("Q[%d] = %g after 500 steps", k, v)
		}
	}
}

func TestEstimateFlopsDoesNotMutate(t *testing.T) {
	spec := grid.TwoByTwoPointFive(9)
	m := NewModel(spec, stepsPerDay)
	c := testColumn(spec, 45, 3)
	t0 := append([]float64(nil), c.T...)
	m.EstimateFlops(c, 5)
	for k := range t0 {
		if c.T[k] != t0[k] {
			t.Fatal("EstimateFlops mutated the column")
		}
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{None: "none", Shuffle: "shuffle", Greedy: "greedy", Pairwise: "pairwise"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
}

func TestPopTail(t *testing.T) {
	// Rank 0 holds five of its own columns and three of rank 1's.
	var h holdings
	h.reset([]int{5, 3})
	h.push(0, h.popTail(1, 3))
	if got := h.list(1); len(got) != 0 || h.ranks[1].held != 0 {
		t.Fatalf("emptied rank still lists %+v (held %d)", got, h.ranks[1].held)
	}
	tail := h.popTail(0, 4)
	// Takes 3 from origin 1 and 1 from origin 0, preserving held order.
	if len(tail) != 2 || tail[0] != (segment{origin: 0, count: 1}) ||
		tail[1] != (segment{origin: 1, count: 3}) {
		t.Fatalf("tail = %+v", tail)
	}
	if segs := h.list(0); len(segs) != 1 || segs[0].count != 4 || h.ranks[0].held != 4 {
		t.Fatalf("remaining = %+v (held %d)", segs, h.ranks[0].held)
	}
	// An exact cut needs no split, and asking for more than is held takes
	// what there is.
	h.push(1, tail)
	if tail = h.popTail(1, 3); len(tail) != 1 || tail[0] != (segment{origin: 1, count: 3}) {
		t.Fatalf("exact-cut tail = %+v", tail)
	}
	if tail = h.popTail(1, 9); len(tail) != 1 || tail[0] != (segment{origin: 0, count: 1}) ||
		h.ranks[1].held != 0 || h.popTail(1, 1) != nil {
		t.Fatalf("over-ask tail = %+v (held %d)", tail, h.ranks[1].held)
	}
}

// runPhysics integrates `steps` physics steps on a mesh and returns the
// gathered T field and the sim result.
func runPhysics(t *testing.T, spec grid.Spec, py, px, steps int,
	scheme Scheme, rounds int) ([]float64, *sim.Result) {
	t.Helper()
	T, _, res := runPhysicsTQ(t, spec, py, px, steps, scheme, rounds)
	return T, res
}

// runPhysicsTQ is runPhysics returning the gathered Q field as well.
func runPhysicsTQ(t *testing.T, spec grid.Spec, py, px, steps int,
	scheme Scheme, rounds int) (outT, outQ []float64, res *sim.Result) {
	t.Helper()
	d, err := grid.NewDecomp(spec, py, px)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(py*px, machine.CrayT3D())
	res, err = m.Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, py, px)
		l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
		T, Q := testFields(spec, l)
		r := NewRunner(world, cart, l, NewModel(spec, stepsPerDay), scheme, rounds)
		for n := 0; n < steps; n++ {
			p.Account(sim.Physics, func() { r.Step(T, Q, n) })
		}
		gT, gQ := grid.Gather(world, cart, T), grid.Gather(world, cart, Q)
		if world.Rank() == 0 {
			outT, outQ = gT, gQ
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return outT, outQ, res
}

func TestBalancedSchemesPreserveResults(t *testing.T) {
	// The transparency invariant: moving columns around must not change
	// one bit of the answer, for any scheme on any mesh.
	spec := grid.Spec{Nlon: 24, Nlat: 16, Nlayers: 4}
	wantT, wantQ, _ := runPhysicsTQ(t, spec, 1, 1, 5, None, 1)
	for _, tc := range []struct {
		scheme Scheme
		py, px int
	}{
		{None, 2, 2}, {Pairwise, 2, 2}, {Pairwise, 4, 2}, {Pairwise, 4, 3},
		{Greedy, 2, 3}, {Shuffle, 2, 2},
	} {
		name := fmt.Sprintf("%s/%dx%d", tc.scheme, tc.py, tc.px)
		t.Run(name, func(t *testing.T) {
			gotT, gotQ, _ := runPhysicsTQ(t, spec, tc.py, tc.px, 5, tc.scheme, 2)
			for idx := range wantT {
				if math.Float64bits(gotT[idx]) != math.Float64bits(wantT[idx]) {
					t.Fatalf("T[%d] = %g, want %g", idx, gotT[idx], wantT[idx])
				}
				if math.Float64bits(gotQ[idx]) != math.Float64bits(wantQ[idx]) {
					t.Fatalf("Q[%d] = %g, want %g", idx, gotQ[idx], wantQ[idx])
				}
			}
		})
	}
}

func TestUnbalancedPhysicsIsImbalanced(t *testing.T) {
	// The paper measures 35-48% imbalance in the unbalanced Physics.
	spec := grid.TwoByTwoPointFive(9)
	_, res := runPhysics(t, spec, 4, 4, 2, None, 1)
	loads := res.Accounts[sim.Physics]
	max, sum := 0.0, 0.0
	for _, v := range loads {
		sum += v
		if v > max {
			max = v
		}
	}
	avg := sum / float64(len(loads))
	imb := (max - avg) / avg
	if imb < 0.15 {
		t.Fatalf("unbalanced physics imbalance only %.1f%%; load model too uniform", imb*100)
	}
}

func TestPairwiseBalancingReducesCriticalPath(t *testing.T) {
	spec := grid.TwoByTwoPointFive(9)
	const steps = 4
	_, resNone := runPhysics(t, spec, 4, 4, steps, None, 1)
	_, resBal := runPhysics(t, spec, 4, 4, steps, Pairwise, 2)
	tNone := resNone.MaxAccount(sim.Physics)
	tBal := resBal.MaxAccount(sim.Physics)
	if tBal >= tNone {
		t.Fatalf("pairwise balancing did not help: %.3f s vs %.3f s", tBal, tNone)
	}
}

func TestRunnerDeterministic(t *testing.T) {
	spec := grid.Spec{Nlon: 24, Nlat: 16, Nlayers: 3}
	a, ra := runPhysics(t, spec, 2, 2, 4, Pairwise, 2)
	b, rb := runPhysics(t, spec, 2, 2, 4, Pairwise, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("results differ across identical runs")
		}
	}
	for r := range ra.Clocks {
		if ra.Clocks[r] != rb.Clocks[r] {
			t.Fatal("clocks differ across identical runs")
		}
	}
}

func TestPairwiseAbsorbsDegradedNode(t *testing.T) {
	// Hardware heterogeneity: one node runs 3x slower.  The balancer
	// only sees per-rank times, so it should move columns off the slow
	// node exactly as it moves them off physics hot spots.
	spec := grid.TwoByTwoPointFive(9)
	const py, px, steps = 4, 4, 4
	run := func(scheme Scheme) *sim.Result {
		d, _ := grid.NewDecomp(spec, py, px)
		models := make([]sim.CostModel, py*px)
		for i := range models {
			models[i] = machine.CrayT3D()
		}
		models[5] = machine.Degraded(machine.CrayT3D(), 3)
		m := sim.NewHeterogeneous(models)
		res, err := m.Run(func(p *sim.Proc) error {
			world := comm.World(p)
			cart := comm.NewCart2D(world, py, px)
			l := grid.NewLocal(d, cart.MyRow, cart.MyCol)
			T := grid.NewField(l, 1)
			Q := grid.NewField(l, 1)
			for j := 0; j < l.Nlat(); j++ {
				for i := 0; i < l.Nlon(); i++ {
					ref := testColumn(spec, l.GlobalLat(j), l.GlobalLon(i))
					copy(T.Column(j, i), ref.T)
					copy(Q.Column(j, i), ref.Q)
				}
			}
			r := NewRunner(world, cart, l, NewModel(spec, stepsPerDay), scheme, 2)
			for n := 0; n < steps; n++ {
				p.Account(sim.Physics, func() { r.Step(T, Q, n) })
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unbal := run(None).MaxAccount(sim.Physics)
	bal := run(Pairwise).MaxAccount(sim.Physics)
	if bal >= 0.85*unbal {
		t.Fatalf("balancer did not absorb the slow node: %.4f s vs %.4f s unbalanced", bal, unbal)
	}
}

func TestColumnPackUnpackRoundTrip(t *testing.T) {
	spec := grid.Spec{Nlon: 8, Nlat: 8, Nlayers: 3}
	d, _ := grid.NewDecomp(spec, 1, 1)
	m := sim.New(1, machine.Paragon())
	_, err := m.Run(func(p *sim.Proc) error {
		world := comm.World(p)
		cart := comm.NewCart2D(world, 1, 1)
		l := grid.NewLocal(d, 0, 0)
		T, Q := testFields(spec, l)
		r := NewRunner(world, cart, l, NewModel(spec, stepsPerDay), Pairwise, 2)
		// Own columns 19 and 41 are packed straight from the fields.
		refs := []int{19, 41}
		orig := []*Column{testColumn(spec, 2, 3), testColumn(spec, 5, 1)}
		r.packInputs(T, Q, refs)
		msg := append([]float64(nil), r.packBuf...)
		// Received by another rank they are foreign: flip the origin.
		const stride = 4 + 2*3
		for off := 0; off < len(msg); off += stride {
			msg[off+2] = 1
		}
		r.resetForeign(len(refs))
		held := r.unpackInputs(T, Q, nil, msg)
		if len(held) != 2 || held[0] != ^0 || held[1] != ^1 {
			return fmt.Errorf("held = %v, want two foreign columns", held)
		}
		for ci, o := range orig {
			var g Column
			r.column(&g, T, Q, held[ci])
			if o.J != g.J || o.I != g.I || g.Origin != 1 || g.Index != refs[ci] {
				return fmt.Errorf("metadata mismatch: %+v vs %+v", o, g)
			}
			for k := range o.T {
				if o.T[k] != g.T[k] || o.Q[k] != g.Q[k] {
					return fmt.Errorf("profile mismatch at %d", k)
				}
			}
		}
		// Results round trip into the fields at the columns' Index.
		r.foreign[0].T[0] = 999
		r.packResults(held, 1)
		r.unpackResults(T, Q, r.packBuf)
		if T.Column(2, 3)[0] != 999 {
			return fmt.Errorf("result not applied")
		}
		// A column relayed back to its origin is held as the rank's own
		// again and lands in the fields at its Index.
		msg[2], msg[4] = 0, 777
		held = r.unpackInputs(T, Q, nil, msg[:stride])
		if len(held) != 1 || held[0] != 19 || T.Column(2, 3)[0] != 777 {
			return fmt.Errorf("relayed column: held %v, T %g", held, T.Column(2, 3)[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunnerFanMatchesInline steps one rank's physics with its column
// blocks inline (GOMAXPROCS 1) and split two and four ways (sim.Fan), on a
// grid whose 13*11 columns fill no whole number of blocks per worker: the
// same T and Q bits, clock and load estimate after every step.
func TestRunnerFanMatchesInline(t *testing.T) {
	spec := grid.Spec{Nlon: 13, Nlat: 11, Nlayers: 5}
	d, err := grid.NewDecomp(spec, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	type state struct {
		bits   []uint64
		clocks []float64
		loads  []float64
	}
	run := func(procs int, scheme Scheme) (st state) {
		t.Helper()
		withProcs(procs, func() {
			_, err = sim.New(1, machine.CrayT3D()).Run(func(p *sim.Proc) error {
				world := comm.World(p)
				l := grid.NewLocal(d, 0, 0)
				T, Q := testFields(spec, l)
				r := NewRunner(world, comm.NewCart2D(world, 1, 1), l, NewModel(spec, stepsPerDay), scheme, 2)
				for step := 0; step < 30; step++ {
					r.Step(T, Q, step)
					st.clocks = append(st.clocks, p.Clock())
					st.loads = append(st.loads, r.PrevLoadSeconds())
				}
				for _, f := range []*grid.Field{T, Q} {
					for j := 0; j < l.Nlat(); j++ {
						for i := 0; i < l.Nlon(); i++ {
							for _, v := range f.Column(j, i) {
								st.bits = append(st.bits, math.Float64bits(v))
							}
						}
					}
				}
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, scheme := range []Scheme{None, Pairwise} {
		want := run(1, scheme)
		for _, procs := range []int{2, 4} {
			got := run(procs, scheme)
			if !slices.Equal(got.bits, want.bits) || !slices.Equal(got.clocks, want.clocks) || !slices.Equal(got.loads, want.loads) {
				t.Fatalf("%v: GOMAXPROCS %d differs from the inline run", scheme, procs)
			}
		}
	}
}
