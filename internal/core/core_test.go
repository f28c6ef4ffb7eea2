package core

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"agcm/internal/fault"
	"agcm/internal/grid"
	"agcm/internal/history"
	"agcm/internal/machine"
	"agcm/internal/physics"
	"agcm/internal/sim"
)

// testSpec keeps the core tests fast; the full 2x2.5 resolution is
// exercised by the benchmark harness.
var testSpec = grid.Spec{Nlon: 36, Nlat: 24, Nlayers: 3}

func testConfig(py, px int, fv FilterVariant) Config {
	return Config{
		Spec:    testSpec,
		Machine: machine.Paragon(),
		MeshPy:  py, MeshPx: px,
		Filter:        fv,
		PhysicsScheme: physics.None,
	}
}

func TestRunProducesConsistentReport(t *testing.T) {
	rep, err := Run(testConfig(2, 2, FilterFFTBalanced), 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ranks != 4 || rep.Steps != 3 {
		t.Fatalf("report metadata %+v", rep)
	}
	if rep.StepsPerDay < 10 {
		t.Fatalf("StepsPerDay = %d", rep.StepsPerDay)
	}
	if rep.FilterTime <= 0 || rep.FDTime <= 0 || rep.PhysicsTime <= 0 {
		t.Fatalf("component times not positive: %+v", rep)
	}
	if rep.Dynamics < rep.FilterTime || rep.Dynamics < rep.FDTime {
		t.Fatalf("Dynamics %g below its components (filter %g, fd %g)",
			rep.Dynamics, rep.FilterTime, rep.FDTime)
	}
	if rep.Total < rep.Dynamics {
		t.Fatalf("Total %g below Dynamics %g", rep.Total, rep.Dynamics)
	}
	if len(rep.PhysicsLoads) != 4 || len(rep.FilterLoads) != 4 {
		t.Fatalf("per-rank loads missing")
	}
	// The model must have stayed numerically stable.
	if rep.MaxAbsH > 10*8000 || math.IsNaN(rep.MaxAbsH) || rep.MaxAbsH == 0 {
		t.Fatalf("MaxAbsH = %g", rep.MaxAbsH)
	}
}

func TestRunValidation(t *testing.T) {
	bad := testConfig(2, 2, FilterFFT)
	bad.Machine = nil
	if _, err := Run(bad, 2); err == nil {
		t.Error("nil machine accepted")
	}
	bad = testConfig(0, 2, FilterFFT)
	if _, err := Run(bad, 2); err == nil {
		t.Error("zero mesh accepted")
	}
	if _, err := Run(testConfig(1, 1, FilterFFT), 0); err == nil {
		t.Error("zero steps accepted")
	}
	bad = testConfig(1, 1, FilterVariant(99))
	if _, err := Run(bad, 1); err == nil {
		t.Error("unknown filter variant accepted")
	}
	bad = testConfig(1, 1, FilterFFT)
	bad.Spec = grid.Spec{}
	if _, err := Run(bad, 1); err == nil {
		t.Error("invalid spec accepted")
	}
	// A model that fails its own validation is refused with its own error
	// on the flat network too, before any rank runs on it.
	bad = testConfig(2, 2, FilterFFT)
	bad.Machine.Bandwidth = 0
	if _, err := Run(bad, 1); err == nil || !strings.Contains(err.Error(), "Bandwidth must be positive") {
		t.Errorf("zero-bandwidth machine: %v; want the model's validation error", err)
	}
}

func TestFilterVariantStrings(t *testing.T) {
	want := map[FilterVariant]string{
		FilterConvolutionRing: "convolution-ring",
		FilterConvolutionTree: "convolution-tree",
		FilterFFT:             "fft",
		FilterFFTBalanced:     "fft-load-balanced",
		FilterNone:            "none",
		FilterPolarDiffusion:  "polar-implicit-diffusion",
		FilterFFTRowwise:      "fft-rowwise",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), s)
		}
	}
}

func TestStepsPerDayDerivedFromCFL(t *testing.T) {
	cfg := testConfig(1, 1, FilterFFT)
	spd := cfg.StepsPerDay()
	if spd < 20 || spd > 5000 {
		t.Fatalf("StepsPerDay = %d implausible", spd)
	}
	cfg.Dt = 86400 / 10
	if got := cfg.StepsPerDay(); got != 10 {
		t.Fatalf("explicit dt gives %d steps/day, want 10", got)
	}
}

func TestImbalanceHelper(t *testing.T) {
	if got := Imbalance([]float64{11, 4.9, 8, 8}); math.Abs(got-(11-7.975)/7.975) > 1e-12 {
		t.Fatalf("Imbalance = %g", got)
	}
	if Imbalance(nil) != 0 || Imbalance([]float64{0, 0}) != 0 {
		t.Fatalf("edge cases wrong")
	}
}

func TestNewFilterBeatsOldAtScale(t *testing.T) {
	// The paper's headline: with the load-balanced FFT filter the whole
	// code is roughly twice as fast on many nodes (Tables 4 vs 5).
	old, err := Run(testConfig(4, 4, FilterConvolutionRing), 3)
	if err != nil {
		t.Fatal(err)
	}
	new_, err := Run(testConfig(4, 4, FilterFFTBalanced), 3)
	if err != nil {
		t.Fatal(err)
	}
	if new_.Total >= old.Total {
		t.Fatalf("new filter total %g not below old %g", new_.Total, old.Total)
	}
	if new_.FilterTime >= old.FilterTime {
		t.Fatalf("new filter time %g not below old %g", new_.FilterTime, old.FilterTime)
	}
}

func TestPhysicsBalancingReducesPhysicsTime(t *testing.T) {
	base := testConfig(4, 2, FilterFFTBalanced)
	balanced := base
	balanced.PhysicsScheme = physics.Pairwise
	balanced.PhysicsRounds = 2
	repN, err := Run(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := Run(balanced, 4)
	if err != nil {
		t.Fatal(err)
	}
	if repB.PhysicsTime >= repN.PhysicsTime {
		t.Fatalf("balanced physics %g not below unbalanced %g",
			repB.PhysicsTime, repN.PhysicsTime)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(testConfig(2, 3, FilterFFTBalanced), 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(2, 3, FilterFFTBalanced), 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != b.Total || a.FilterTime != b.FilterTime || a.PhysicsTime != b.PhysicsTime {
		t.Fatalf("reports differ across identical runs:\n%+v\n%+v", a, b)
	}
}

func TestAllFilterVariantsRunAndStayStable(t *testing.T) {
	for _, fv := range []FilterVariant{
		FilterConvolutionRing, FilterConvolutionTree, FilterFFT,
		FilterFFTBalanced, FilterFFTRowwise, FilterPolarDiffusion,
	} {
		rep, err := Run(testConfig(2, 2, fv), 2)
		if err != nil {
			t.Fatalf("%s: %v", fv, err)
		}
		if rep.MaxAbsH > 10000 || rep.MaxAbsH < 500 {
			t.Errorf("%s: max |h| = %g", fv, rep.MaxAbsH)
		}
		if fv != FilterPolarDiffusion && rep.FilterTime <= 0 {
			t.Errorf("%s: no filter time accounted", fv)
		}
	}
}

func TestDegradedRankValidation(t *testing.T) {
	cfg := testConfig(2, 2, FilterFFT)
	cfg.DegradeRank = 9 // outside the 4-rank mesh
	cfg.DegradeFactor = 2
	if _, err := Run(cfg, 1); err == nil {
		t.Error("out-of-mesh degraded rank accepted")
	}
	cfg = testConfig(2, 2, FilterFFT)
	cfg.DegradeRank = 1
	cfg.DegradeFactor = 0.5
	if _, err := Run(cfg, 1); err == nil {
		t.Error("degrade factor below 1 accepted")
	}
	cfg = testConfig(2, 2, FilterFFT)
	cfg.DegradeRank = 1
	cfg.DegradeFactor = 2
	rep, err := Run(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The degraded rank must dominate the per-rank physics loads.
	maxIdx := 0
	for r, v := range rep.PhysicsLoads {
		if v > rep.PhysicsLoads[maxIdx] {
			maxIdx = r
		}
	}
	if maxIdx != 1 {
		t.Errorf("slowest physics rank is %d, want the degraded rank 1", maxIdx)
	}
}

func TestCheckpointContinuation(t *testing.T) {
	// 6 measured steps straight through vs 3 + checkpoint + 3: the final
	// state must be identical (physics balancing estimates reset at the
	// restart, so use the None scheme for bitwise comparability).
	base := testConfig(2, 2, FilterFFTBalanced)
	base.CaptureState = true
	base.WarmupSteps = 1

	straight, err := Run(base, 6)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	cont := base
	cont.InitialState = first.FinalState
	cont.WarmupSteps = 1 // warmup steps also advance the state
	second, err := Run(cont, 2)
	if err != nil {
		t.Fatal(err)
	}
	// straight ran warmup(1)+6 = 7 steps; first 1+3 = 4; second 1+2 = 3
	// more on top -> 7 total.
	hA, _ := straight.FinalState.Variable("h")
	hB, _ := second.FinalState.Variable("h")
	for i := range hA {
		if hA[i] != hB[i] {
			t.Fatalf("checkpoint continuation diverged at %d: %g vs %g", i, hA[i], hB[i])
		}
	}
	if second.FinalState.Step != straight.FinalState.Step {
		t.Fatalf("step counters differ: %d vs %d",
			second.FinalState.Step, straight.FinalState.Step)
	}
}

func TestFullDaySoak(t *testing.T) {
	// A full simulated day at full resolution with live physics and
	// balancing: the model must stay bounded and conservative.
	if testing.Short() {
		t.Skip("long soak run")
	}
	cfg := Config{
		Spec:    grid.TwoByTwoPointFive(9),
		Machine: machine.CrayT3D(),
		MeshPy:  2, MeshPx: 2,
		Filter:            FilterFFTBalanced,
		PhysicsScheme:     physics.Pairwise,
		PhysicsRounds:     2,
		VerticalDiffusion: 0.1,
	}
	steps := cfg.StepsPerDay()
	rep, err := Run(cfg, steps)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxAbsH > 2*2500 || rep.MaxAbsH < 1000 {
		t.Fatalf("after one simulated day max |h| = %g m", rep.MaxAbsH)
	}
}

func TestSnapshotHistoryRoundTrip(t *testing.T) {
	cfg := testConfig(1, 1, FilterFFTBalanced)
	file, err := Snapshot(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Names) != 5 {
		t.Fatalf("snapshot has %d variables", len(file.Names))
	}
	var buf bytes.Buffer
	if err := history.WriteFrame(&buf, file); err != nil {
		t.Fatal(err)
	}
	got, err := history.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h0, _ := file.Variable("h")
	h1, _ := got.Variable("h")
	for i := range h0 {
		if h0[i] != h1[i] {
			t.Fatalf("history round trip differs at %d", i)
		}
	}
	// The snapshot must hold a physically sensible height field.
	for _, v := range h1 {
		if v < 1000 || v > 20000 {
			t.Fatalf("snapshot h = %g outside plausible range", v)
		}
	}
}

// TestSnapshotIsCaptureState pins Snapshot to the first five variables of a
// CaptureState run of the 1x1 balanced-FFT model without physics balancing or
// warmup, bit for bit, whatever else the given config asks for; and Snapshot's
// kit must not stay in the process pool.
func TestSnapshotIsCaptureState(t *testing.T) {
	cfg := testConfig(2, 2, FilterConvolutionRing)
	cfg.PhysicsScheme, cfg.VerticalDiffusion, cfg.InitWind = physics.Pairwise, 0.1, 15
	forced := Config{
		Spec: cfg.Spec, Machine: cfg.Machine, MeshPy: 1, MeshPx: 1,
		Filter: FilterFFTBalanced, PhysicsScheme: physics.None, PhysicsRounds: 1,
		InitWind: cfg.InitWind, WarmupSteps: -1, CaptureState: true,
	}
	def, err := forced.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	pooled := func() (n int) {
		kits.mu.Lock()
		defer kits.mu.Unlock()
		for _, k := range kits.idle {
			if k.key == keyOf(def) {
				n++
			}
		}
		return n
	}
	const steps = 3
	before := pooled()
	snap, err := Snapshot(cfg, steps)
	if err != nil {
		t.Fatal(err)
	}
	if pooled() != before {
		t.Error("Snapshot left its kit in the process pool")
	}
	rep, err := Run(forced, steps)
	if err != nil {
		t.Fatal(err)
	}
	want := rep.FinalState
	if snap.Spec != want.Spec || snap.Step != want.Step || snap.Step != steps {
		t.Fatalf("snapshot grid %+v step %d, want %+v step %d", snap.Spec, snap.Step, want.Spec, want.Step)
	}
	if len(snap.Names) != 5 {
		t.Fatalf("snapshot variables %v, want the first five of %v", snap.Names, want.Names)
	}
	for i, name := range snap.Names {
		if name != want.Names[i] {
			t.Fatalf("snapshot variable %d is %q, want %q", i, name, want.Names[i])
		}
		for j, v := range snap.Data[i] {
			if math.Float64bits(v) != math.Float64bits(want.Data[i][j]) {
				t.Fatalf("%s[%d] = %v, want %v", name, j, v, want.Data[i][j])
			}
		}
	}
}

func TestCrashRecoveryRoundTrip(t *testing.T) {
	// The end-to-end robustness scenario at test resolution: reference run,
	// crashed run with periodic checkpoints, restart from the last
	// checkpoint — the restarted state must be bit-identical to the
	// reference.
	base := testConfig(2, 2, FilterFFTBalanced)
	base.WarmupSteps = -1 // all legs must agree on absolute step indices
	base.CaptureState = true
	const steps = 6

	ref, err := Run(base, steps)
	if err != nil {
		t.Fatal(err)
	}

	faulty := base
	faulty.CheckpointEvery = 2
	faulty.Fault = &fault.Spec{
		Crashes: []fault.Crash{{Rank: 1, At: 0.7 * ref.Raw.MaxClock()}},
	}
	crashed, err := Run(faulty, steps)
	var ce *sim.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("crashed run error = %v, want *sim.CrashError", err)
	}
	if ce.Rank != 1 {
		t.Fatalf("crash rank = %d, want 1", ce.Rank)
	}
	if crashed == nil {
		t.Fatal("failed run returned no partial report")
	}
	cps := crashed.Checkpoints
	for len(cps) > 0 && cps[len(cps)-1].Step >= steps {
		cps = cps[:len(cps)-1]
	}
	if len(cps) == 0 {
		t.Fatal("no usable checkpoint survived the crash")
	}
	last := cps[len(cps)-1]

	resume := base
	resume.InitialState = last
	rec, err := Run(resume, steps-last.Step)
	if err != nil {
		t.Fatal(err)
	}
	if rec.FinalState.Step != ref.FinalState.Step {
		t.Fatalf("restarted run ended at step %d, reference at %d",
			rec.FinalState.Step, ref.FinalState.Step)
	}
	for i, name := range ref.FinalState.Names {
		a := ref.FinalState.Data[i]
		b, err := rec.FinalState.Variable(name)
		if err != nil {
			t.Fatalf("restarted state missing %q: %v", name, err)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("variable %q diverged at %d: %g vs %g", name, j, a[j], b[j])
			}
		}
	}
}

func TestCheckpointEveryHealthyRun(t *testing.T) {
	cfg := testConfig(2, 2, FilterFFT)
	cfg.WarmupSteps = -1
	cfg.CheckpointEvery = 2
	rep, err := Run(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Checkpoints) != 2 {
		t.Fatalf("got %d checkpoints, want 2 (steps 2 and 4)", len(rep.Checkpoints))
	}
	for i, want := range []int{2, 4} {
		if rep.Checkpoints[i].Step != want {
			t.Fatalf("checkpoint %d at step %d, want %d", i, rep.Checkpoints[i].Step, want)
		}
	}
}

func TestFaultSpecValidatedAgainstMesh(t *testing.T) {
	cfg := testConfig(2, 2, FilterFFT)
	cfg.Fault = &fault.Spec{Crashes: []fault.Crash{{Rank: 7, At: 1}}}
	if _, err := Run(cfg, 2); err == nil {
		t.Fatal("fault naming rank 7 accepted on a 4-rank mesh")
	}
	cfg.Fault = &fault.Spec{Slowdowns: []fault.Slowdown{{Rank: 0, At: 0, Factor: 0.5}}}
	if _, err := Run(cfg, 2); err == nil {
		t.Fatal("invalid slowdown factor accepted")
	}
}

func TestSlowdownFaultStretchesRun(t *testing.T) {
	cfg := testConfig(2, 2, FilterFFT)
	healthy, err := Run(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	slow := cfg
	slow.Fault = &fault.Spec{
		Slowdowns: []fault.Slowdown{{Rank: 0, At: 0, Factor: 3}},
	}
	degraded, err := Run(slow, 3)
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Total <= healthy.Total {
		t.Fatalf("slowdown did not stretch the run: %g vs healthy %g",
			degraded.Total, healthy.Total)
	}
}
