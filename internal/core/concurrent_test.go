package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"agcm/internal/physics"
	"agcm/internal/sim"
)

// TestConcurrentRunsBitIdentical is the concurrency audit behind the agcmd
// worker pool: many core.Run virtual machines in one process — the same
// config twice, plus different configs stressing shared state such as the
// fft per-size plan registry and the pooled sim transports — must each
// produce exactly the report their config produces when run alone.  Run
// under -race (CI does) this also proves the sharing is synchronized.
func TestConcurrentRunsBitIdentical(t *testing.T) {
	configs := []Config{
		testConfig(2, 2, FilterFFTBalanced),
		testConfig(1, 2, FilterFFT),
		testConfig(2, 1, FilterConvolutionRing),
		testConfig(1, 1, FilterPolarDiffusion),
	}
	const steps = 2

	want := make([]string, len(configs))
	for i, cfg := range configs {
		rep, err := Run(cfg, steps)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = reportBits(t, rep)
	}

	// Two concurrent machines per config, all in flight at once.
	const dup = 2
	got := make([]string, len(configs)*dup)
	errs := make([]error, len(configs)*dup)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := Run(configs[i%len(configs)], steps)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = reportBits(t, rep)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
	for i, g := range got {
		if w := want[i%len(configs)]; g != w {
			t.Errorf("concurrent run %d diverged from its solo run:\n got  %s\n want %s", i, g, w)
		}
	}
}

// TestKitConcurrentSameShape is the shared-pool case: four goroutines run
// one 4x4 shape at once, over and over, with different winds and schemes —
// two of them share a scheme, so they share kits too — through the process
// pool.  Every report must equal its config's fresh sequential run, bit for
// bit, however the kits were checked out and returned.
func TestKitConcurrentSameShape(t *testing.T) {
	const workers, rounds, steps = 4, 3, 2
	schemes := [workers]physics.Scheme{physics.Pairwise, physics.Pairwise, physics.None, physics.Greedy}
	configs := make([]Config, workers)
	want := make([]string, workers)
	for i := range configs {
		configs[i] = testConfig(4, 4, FilterFFTBalanced)
		configs[i].PhysicsScheme = schemes[i]
		configs[i].InitWind = 18 + 3*float64(i)
		rep, err := newTestPool().run(context.Background(), configs[i], steps)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = reportBits(t, rep)
	}
	got := make([][rounds]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range configs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				rep, err := Run(configs[i], steps)
				if err != nil {
					errs[i] = err
					return
				}
				got[i][r] = reportBits(t, rep)
			}
		}(i)
	}
	wg.Wait()
	for i := range configs {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		for r, g := range got[i] {
			if g != want[i] {
				t.Errorf("worker %d (%v, wind %g) round %d diverged from its fresh sequential run",
					i, schemes[i], configs[i].InitWind, r)
			}
		}
	}
}

func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, testConfig(1, 2, FilterFFT), 1)
	var ce *sim.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *sim.CanceledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false for %v", err)
	}
}

func TestRunContextDeadline(t *testing.T) {
	// A run far too long for the 1ms budget: the deadline must cut it
	// short with the typed error rather than let it complete.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := RunContext(ctx, testConfig(2, 2, FilterFFTBalanced), 100000)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	var ce *sim.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *sim.CanceledError", err)
	}
}
