package comm

// The board tests: Barrier, AlltoallvInto and AllgathervInto run on their
// communicators' boards — the compiled plan, or with a fault hook installed
// their steps as messages — and must be indistinguishable from the message
// bodies they replace (reference_test.go) — every clock, wait, counter,
// account and event bit, every received payload bit and every error — on
// seeded random programs over heterogeneous, routed and faulty machines, with
// members arriving in seeded orders.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"agcm/internal/fault"
	"agcm/internal/machine"
	"agcm/internal/sim"
	"agcm/internal/topology"
)

// The operations of a differential program.
const (
	opRing     = iota // AllgathervInto
	opAlltoall        // AlltoallvInto
	opBarrier         // Barrier
	opBcast           // BcastInto: a mailbox collective between board calls
	opCompute         // rank-varying computation, so members arrive apart
	numOps
)

// boardOp is one step of a program, run by every rank on the world (0), its
// mesh row (1) or its mesh column (2).
type boardOp struct {
	kind, comm int
	seed       uint64
}

// boardCase is one seeded machine and the program it runs.
type boardCase struct {
	py, px int
	models []sim.CostModel
	route  bool
	spec   *fault.Spec // nil: no fault hook
	pass   bool        // with spec nil, install passHook: the generic path
	prog   []boardOp
}

// passHook is a fault hook that changes nothing: installed, it sends every
// board call down the generic path with every bit the same.
type passHook struct{}

func (passHook) ComputeSeconds(rank int, start, dt float64) float64 { return dt }
func (passHook) SendDelay(src, dst, tag int, seq int64, now float64) (float64, error) {
	return 0, nil
}
func (passHook) CrashTime(rank int) float64 { return math.Inf(1) }

// mix64 is the splitmix64 finalizer: the payloads and flop counts of a
// program are pure functions of (op seed, rank, peer).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// opPayload is what member a contributes for peer b (-1: for everyone): up to
// maxLen floats of raw random bits, NaNs and -0 included.
func opPayload(seed uint64, a, b, maxLen int) []float64 {
	h := mix64(seed ^ mix64(uint64(a)<<32|uint64(uint32(b))))
	out := make([]float64, h%uint64(maxLen+1))
	for i := range out {
		h = mix64(h)
		out[i] = math.Float64frombits(h)
	}
	return out
}

// hashFloats folds a buffer's length and bits into an FNV-1a digest.
func hashFloats(h uint64, fs []float64) uint64 {
	h = (h ^ uint64(len(fs))) * 1099511628211
	for _, f := range fs {
		h = (h ^ math.Float64bits(f)) * 1099511628211
	}
	return h
}

// newBoardCase draws a mesh of 1 to 64 ranks (240 when world240), a program
// with back-to-back calls of one collective, heterogeneous cost models and,
// on half the seeds, a routed mesh network.
func newBoardCase(rng *rand.Rand, world240 bool) *boardCase {
	bc := &boardCase{py: 8, px: 30}
	ops := 8
	if !world240 {
		ranks := 1 + rng.Intn(64)
		var divs []int
		for d := 1; d <= ranks; d++ {
			if ranks%d == 0 {
				divs = append(divs, d)
			}
		}
		bc.py = divs[rng.Intn(len(divs))]
		bc.px = ranks / bc.py
		ops = 16 + rng.Intn(12)
	}
	n := bc.py * bc.px
	bc.models = make([]sim.CostModel, n)
	for r := range bc.models {
		switch rng.Intn(4) {
		case 0:
			bc.models[r] = machine.CrayT3D()
		case 1:
			bc.models[r] = machine.Degraded(machine.Paragon(), 1.5+2*rng.Float64())
		default:
			bc.models[r] = machine.Paragon()
		}
	}
	bc.route = rng.Intn(2) == 0
	for len(bc.prog) < ops {
		op := boardOp{kind: rng.Intn(numOps), comm: rng.Intn(3), seed: rng.Uint64()}
		if k := len(bc.prog); k > 0 && rng.Intn(3) == 0 {
			op.kind, op.comm = bc.prog[k-1].kind, bc.prog[k-1].comm // back to back
		}
		bc.prog = append(bc.prog, op)
	}
	return bc
}

// newMachine builds the case's machine afresh, event log on.
func (bc *boardCase) newMachine(t *testing.T) *sim.Machine {
	t.Helper()
	m := sim.NewHeterogeneous(bc.models)
	m.SetEventLog(true)
	if bc.route {
		topo, err := topology.NewGrid(false, bc.px, bc.py)
		if err != nil {
			t.Fatal(err)
		}
		place, err := topology.Snake(topo)
		if err != nil {
			t.Fatal(err)
		}
		net, err := topology.NewNetwork(topo, place, machine.Paragon())
		if err != nil {
			t.Fatal(err)
		}
		m.SetRouteModel(net)
	}
	if bc.spec != nil {
		m.SetFaultHook(fault.NewInjector(bc.spec))
	} else if bc.pass {
		m.SetFaultHook(passHook{})
	}
	return m
}

// boardRun is the outcome of one run of a case.
type boardRun struct {
	res    *sim.Result
	err    error
	digest []uint64 // per rank, over every payload it got back, as far as it got
}

// runWithin runs m.Run(body) and fails the test if it has not returned in
// 10 s: a board call that leaves members parked would otherwise hang the
// package until go test's timeout.  Every Run of this package's tests goes
// through it.
func runWithin(t *testing.T, m *sim.Machine, body func(*sim.Proc) error) (*sim.Result, error) {
	t.Helper()
	done := make(chan boardRun, 1)
	go func() {
		res, err := m.Run(body)
		done <- boardRun{res: res, err: err}
	}()
	select {
	case r := <-done:
		return r.res, r.err
	case <-time.After(10 * time.Second):
		t.Fatal("Run still blocked 10s into the test: a board waiter was not released")
		return nil, nil
	}
}

// run plays the case's program on a fresh machine, through the boards or,
// when ref, through the reference's messages.
func (bc *boardCase) run(t *testing.T, ref bool) boardRun {
	t.Helper()
	m := bc.newMachine(t)
	digest := make([]uint64, m.Ranks())
	res, err := runWithin(t, m, bc.body(ref, digest))
	return boardRun{res, err, digest}
}

// body is one rank's program.  Board collectives run inside a sim.Sync span,
// which places the crash of the faulty scenarios inside one.
func (bc *boardCase) body(ref bool, digest []uint64) func(p *sim.Proc) error {
	return func(p *sim.Proc) error {
		world := World(p)
		cart := NewCart2D(world, bc.py, bc.px)
		comms := [3]*Comm{world, cart.Row, cart.Col}
		var outs, parts [3][][]float64
		for i, c := range comms {
			outs[i], parts[i] = make([][]float64, c.Size()), make([][]float64, c.Size())
		}
		var bcast []float64
		h := uint64(14695981039346656037)
		for _, op := range bc.prog {
			c := comms[op.comm]
			n, me := c.Size(), c.Rank()
			for k := mix64(op.seed^uint64(p.Rank())) % 48; k > 0; k-- {
				runtime.Gosched() // a seeded stagger, so the members of a call arrive in varying orders
			}
			maxLen := 200
			if n > 64 {
				maxLen = 4 // a 240-member all-to-all moves n² payloads
			}
			out := outs[op.comm]
			switch op.kind {
			case opCompute:
				p.Compute(float64(mix64(op.seed^uint64(p.Rank())) % 400000))
			case opBcast:
				root := int(op.seed % uint64(n))
				bcast = bcast[:0]
				if me == root {
					bcast = append(bcast, opPayload(op.seed, root, -1, maxLen)...)
				}
				bcast = c.BcastInto(root, bcast)
				h = hashFloats(h, bcast)
			case opRing:
				data := opPayload(op.seed, me, -1, maxLen)
				p.Account(sim.Sync, func() {
					if ref {
						refAllgathervInto(c, data, out)
					} else {
						c.AllgathervInto(data, out)
					}
				})
			case opAlltoall:
				in := parts[op.comm]
				for d := range in {
					in[d] = opPayload(op.seed, me, d, maxLen)
				}
				p.Account(sim.Sync, func() {
					if ref {
						refAlltoallvInto(c, in, out)
					} else {
						c.AlltoallvInto(in, out)
					}
				})
			case opBarrier:
				p.Account(sim.Sync, func() {
					if ref {
						refBarrier(c)
					} else {
						c.Barrier()
					}
				})
			}
			if op.kind == opRing || op.kind == opAlltoall {
				for _, o := range out {
					h = hashFloats(h, o)
				}
			}
			digest[p.Rank()] = h
		}
		return nil
	}
}

// sameError compares two Run errors: type, the CrashError's fields, the
// DeadlockError's wait-for graph, and the text of any other error.
func sameError(got, want error) error {
	if (got == nil) != (want == nil) || reflect.TypeOf(got) != reflect.TypeOf(want) {
		return fmt.Errorf("error %v (%T), want %v (%T)", got, got, want, want)
	}
	var gc, wc *sim.CrashError
	if errors.As(got, &gc) && errors.As(want, &wc) {
		if gc.Rank != wc.Rank || math.Float64bits(gc.At) != math.Float64bits(wc.At) {
			return fmt.Errorf("crash %+v, want %+v", *gc, *wc)
		}
		return nil
	}
	var gd, wd *sim.DeadlockError
	if errors.As(got, &gd) && errors.As(want, &wd) {
		if !reflect.DeepEqual(gd, wd) {
			return fmt.Errorf("deadlock %v, want %v", gd, wd)
		}
		return nil
	}
	if got != nil && got.Error() != want.Error() {
		return fmt.Errorf("error %q, want %q", got, want)
	}
	return nil
}

// sameResult compares two Results bit for bit.
func sameResult(got, want *sim.Result) error {
	bits := func(name string, g, w []float64) error {
		for r := range w {
			if math.Float64bits(g[r]) != math.Float64bits(w[r]) {
				return fmt.Errorf("%s[%d] = %v, want %v", name, r, g[r], w[r])
			}
		}
		return nil
	}
	if err := bits("Clocks", got.Clocks, want.Clocks); err != nil {
		return err
	}
	if err := bits("WaitSeconds", got.WaitSeconds, want.WaitSeconds); err != nil {
		return err
	}
	if !reflect.DeepEqual(got.MessagesSent, want.MessagesSent) || !reflect.DeepEqual(got.BytesSent, want.BytesSent) {
		return fmt.Errorf("traffic %v / %v, want %v / %v", got.MessagesSent, got.BytesSent, want.MessagesSent, want.BytesSent)
	}
	if !reflect.DeepEqual(got.Phases(), want.Phases()) {
		return fmt.Errorf("accounts %v, want %v", got.Phases(), want.Phases())
	}
	for ph, w := range want.Accounts {
		if err := bits("Accounts["+sim.Phase(ph).String()+"]", got.Accounts[ph], w); err != nil {
			return err
		}
	}
	if len(got.Events) != len(want.Events) {
		return fmt.Errorf("event logs of %d ranks, want %d", len(got.Events), len(want.Events))
	}
	for r, w := range want.Events {
		g := got.Events[r]
		if len(g) != len(w) {
			return fmt.Errorf("rank %d logged %d events, want %d", r, len(g), len(w))
		}
		for i := range w {
			a, b := g[i], w[i]
			if a.Kind != b.Kind || a.Name != b.Name || a.Peer != b.Peer || a.Bytes != b.Bytes || a.Seq != b.Seq ||
				math.Float64bits(a.Start) != math.Float64bits(b.Start) || math.Float64bits(a.End) != math.Float64bits(b.End) {
				return fmt.Errorf("rank %d event %d is %+v, want %+v", r, i, a, b)
			}
		}
	}
	return nil
}

// compareRuns requires the board run to equal the reference run.  A run cut
// short by a delivery failure shuts the machine down at a schedule-dependent
// point, so only its error is compared.
func compareRuns(t *testing.T, name string, got, want boardRun, errorOnly bool) {
	t.Helper()
	if err := sameError(got.err, want.err); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if errorOnly {
		return
	}
	if err := sameResult(got.res, want.res); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(got.digest, want.digest) {
		t.Fatalf("%s: received payload digests differ:\n got %x\nwant %x", name, got.digest, want.digest)
	}
}

// crashInside returns a crash of a random rank at the middle of one of its
// sync spans in res, or false when no span has length.
func crashInside(rng *rand.Rand, res *sim.Result) (fault.Crash, bool) {
	r := rng.Intn(len(res.Events))
	var spans []sim.Event
	for _, e := range res.Events[r] {
		if e.Kind == sim.EventSpan && e.Name == sim.Sync.String() && e.End > e.Start {
			spans = append(spans, e)
		}
	}
	if len(spans) == 0 {
		return fault.Crash{}, false
	}
	e := spans[rng.Intn(len(spans))]
	return fault.Crash{Rank: r, At: (e.Start + e.End) / 2}, true
}

// exhaustingSeed returns a fault seed under which drop exhausts the retry
// budget of messages of exactly one rank, given each rank's message count:
// that rank's first such send fails wherever the schedule is, so the Run's
// error is deterministic.
func exhaustingSeed(spec fault.Spec, sent []int64) (uint64, bool) {
	for seed := uint64(1); seed <= 400; seed++ {
		spec.Seed = seed
		in := fault.NewInjector(&spec)
		failing := 0
		for src, n := range sent {
			for seq := int64(1); seq <= n; seq++ {
				if _, err := in.SendDelay(src, 0, 0, seq, 0); err != nil {
					failing++
					break
				}
			}
		}
		if failing == 1 {
			return seed, true
		}
	}
	return 0, false
}

// TestBoardDifferential runs seeded random programs — meshes of 1 to 64
// ranks and the 240-rank 8x30 one, world, row and column communicators,
// payloads of 0 to 200 floats, back-to-back calls, members staggered into
// seeded arrival orders — through the boards and through the reference's
// messages, on heterogeneous machines, half of them routed, with the event
// log on, in four fault scenarios: none, where the compiled plan and the
// generic path (a fault hook that changes nothing) must both equal the
// messages; jitter, recovered drops and a slowdown onset; those plus a crash
// inside a collective; and a drop that exhausts its retry budget.
func TestBoardDifferential(t *testing.T) {
	var crashes, exhausted int
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bc := newBoardCase(rng, seed == 1)
		name := fmt.Sprintf("seed %d (%dx%d, routed %v)", seed, bc.py, bc.px, bc.route)

		ref := bc.run(t, true)
		compareRuns(t, name+", no faults, compiled", bc.run(t, false), ref, false)
		bc.pass = true
		compareRuns(t, name+", no faults, generic", bc.run(t, false), ref, false)
		bc.pass = false

		n := bc.py * bc.px
		bc.spec = &fault.Spec{
			Seed:      rng.Uint64(),
			Jitter:    &fault.Jitter{Max: 2e-5},
			Drop:      &fault.Drop{Prob: 0.2, Retries: 40, Timeout: 1e-4},
			Slowdowns: []fault.Slowdown{{Rank: rng.Intn(n), At: 1e-3 * rng.Float64(), Factor: 2.5}},
		}
		faulty := bc.run(t, true)
		if faulty.err != nil {
			t.Fatalf("%s, jitter/drops/slowdown: reference failed: %v", name, faulty.err)
		}
		compareRuns(t, name+", jitter/drops/slowdown", bc.run(t, false), faulty, false)

		if c, ok := crashInside(rng, faulty.res); ok {
			healthy := *bc.spec
			bc.spec.Crashes = []fault.Crash{c}
			want := bc.run(t, true)
			var ce *sim.CrashError
			if !errors.As(want.err, &ce) {
				t.Fatalf("%s: reference with %+v: error %v, want the crash", name, c, want.err)
			}
			compareRuns(t, fmt.Sprintf("%s, crash %+v", name, c), bc.run(t, false), want, false)
			bc.spec = &healthy
			crashes++
		}

		var total int64
		for _, s := range faulty.res.MessagesSent {
			total += s
		}
		if total > 1 {
			drop := *bc.spec
			drop.Drop = &fault.Drop{Prob: 0.5, Retries: int(math.Log2(float64(total))) - 1, Timeout: 1e-4}
			if s, ok := exhaustingSeed(drop, faulty.res.MessagesSent); ok {
				drop.Seed = s
				bc.spec = &drop
				want := bc.run(t, true)
				if want.err == nil {
					t.Fatalf("%s: reference with an exhausted retry budget did not fail", name)
				}
				compareRuns(t, name+", exhausted retries", bc.run(t, false), want, true)
				exhausted++
			}
		}
	}
	// The seeds are fixed: these counts only fall if the generator changes.
	if crashes < 8 || exhausted < 8 {
		t.Fatalf("%d crash and %d exhausted-retry scenarios ran; the seeds should give at least 8 of each", crashes, exhausted)
	}
	t.Logf("%d crash and %d exhausted-retry scenarios", crashes, exhausted)
}

// TestBoardAliasing: a member's outputs may alias its own inputs.  The board
// stages a send's payload when the replay executes it, so AlltoallvInto(parts,
// parts) and an AllgathervInto whose data is one of out[j != me] deliver what
// the messages deliver, though the replay runs a receiver's steps after the
// sender has overwritten its inputs.
func TestBoardAliasing(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		run := func(ref bool) boardRun {
			m := sim.New(n, machine.Paragon())
			m.SetEventLog(true)
			digest := make([]uint64, n)
			res, err := runWithin(t, m, func(p *sim.Proc) error {
				c := World(p)
				me := c.Rank()
				h := uint64(14695981039346656037)
				for round := uint64(0); round < 3; round++ {
					parts := make([][]float64, n)
					for d := range parts {
						parts[d] = opPayload(round, me, d, 40)
					}
					if ref {
						refAlltoallvInto(c, parts, parts)
					} else {
						c.AlltoallvInto(parts, parts)
					}
					out := make([][]float64, n)
					for j := range out {
						out[j] = opPayload(round, me, j+n, 40)
					}
					data := out[(me+1)%n]
					if ref {
						refAllgathervInto(c, data, out)
					} else {
						c.AllgathervInto(data, out)
					}
					for _, o := range append(parts, out...) {
						h = hashFloats(h, o)
					}
				}
				digest[p.Rank()] = h
				return nil
			})
			return boardRun{res, err, digest}
		}
		compareRuns(t, fmt.Sprintf("%d ranks", n), run(false), run(true), false)
	}
}

// TestBoardSkippedCollectiveDeadlock: a member that skips AllgathervInto or
// AlltoallvInto leaves its peers waiting, and the watchdog must report the
// wait-for graph the messages would have left, on the world and on a mesh
// row, with the machine's Result as it stood.
func TestBoardSkippedCollectiveDeadlock(t *testing.T) {
	for _, kind := range []int{opRing, opAlltoall, opBarrier} {
		for _, mesh := range [][2]int{{1, 5}, {2, 3}, {3, 4}} {
			run := func(ref bool) boardRun {
				m := sim.New(mesh[0]*mesh[1], machine.Paragon())
				res, err := runWithin(t, m, func(p *sim.Proc) error {
					cart := NewCart2D(World(p), mesh[0], mesh[1])
					c := cart.Row
					p.Compute(float64(1000 * (p.Rank() + 1)))
					if c.Rank() == 1 {
						return nil // skips the collective
					}
					out := make([][]float64, c.Size())
					switch kind {
					case opRing:
						data := opPayload(1, c.Rank(), -1, 9)
						if ref {
							refAllgathervInto(c, data, out)
						} else {
							c.AllgathervInto(data, out)
						}
					case opAlltoall:
						parts := make([][]float64, c.Size())
						for d := range parts {
							parts[d] = opPayload(1, c.Rank(), d, 9)
						}
						if ref {
							refAlltoallvInto(c, parts, out)
						} else {
							c.AlltoallvInto(parts, out)
						}
					case opBarrier:
						if ref {
							refBarrier(c)
						} else {
							c.Barrier()
						}
					}
					return nil
				})
				return boardRun{res: res, err: err}
			}
			got, want := run(false), run(true)
			var de *sim.DeadlockError
			if !errors.As(want.err, &de) {
				t.Fatalf("op %d mesh %v: reference error %v, want a deadlock", kind, mesh, want.err)
			}
			compareRuns(t, fmt.Sprintf("op %d mesh %v", kind, mesh), got, want, false)
		}
	}
}
