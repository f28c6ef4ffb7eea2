package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"agcm/internal/grid"
	"agcm/internal/physics"
)

// withProcs runs f with GOMAXPROCS set to procs and restores it after.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestFanDifferential runs one-rank configurations with the rank's loops
// inline (GOMAXPROCS 1) and split four ways (GOMAXPROCS 4), and the 2x2
// serving shape inline and split two ways (GOMAXPROCS 8), on a new kit, on
// a warm kit, and on a kit built inline and then run split.  Every Report
// must be the same bit for bit — accounts, clocks, traffic, MaxAbsH — and so
// must the final fields, captured into the Report.
func TestFanDifferential(t *testing.T) {
	type fanCase struct {
		name  string
		cfg   Config
		procs int // GOMAXPROCS of the split runs
	}
	var cases []fanCase
	for _, fv := range []FilterVariant{FilterFFT, FilterFFTBalanced} {
		for _, s := range []physics.Scheme{physics.None, physics.Pairwise} {
			for _, kv := range []float64{0, 0.2} {
				cfg := testConfig(1, 1, fv)
				cfg.PhysicsScheme, cfg.PhysicsRounds, cfg.VerticalDiffusion = s, 2, kv
				cases = append(cases, fanCase{fmt.Sprintf("%v/%v/kv=%g", fv, s, kv), cfg, 4})
			}
		}
	}
	// 25 rows, 113 column blocks: neither splits evenly four ways.
	odd := testConfig(1, 1, FilterFFTBalanced)
	odd.Spec = grid.Spec{Nlon: 36, Nlat: 25, Nlayers: 3}
	odd.PhysicsScheme, odd.VerticalDiffusion = physics.Pairwise, 0.2
	cases = append(cases, fanCase{"odd-grid", odd, 4})
	// The serving shape, 2x2, splits two ways on eight cores.
	for _, fv := range []FilterVariant{FilterFFT, FilterFFTBalanced} {
		cfg := testConfig(2, 2, fv)
		cfg.PhysicsScheme, cfg.PhysicsRounds, cfg.VerticalDiffusion = physics.Pairwise, 2, 0.2
		cases = append(cases, fanCase{fmt.Sprintf("2x2/%v", fv), cfg, 8})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.CaptureState = true
			run := func(pool *kitPool) (bits, fields string) {
				t.Helper()
				rep, err := pool.run(context.Background(), cfg, 3)
				if err != nil {
					t.Fatal(err)
				}
				if rep.FinalState == nil {
					t.Fatal("no final state captured")
				}
				var b strings.Builder
				writeBits(&b, reflect.ValueOf(rep.FinalState), make(map[uintptr]bool))
				return reportBits(t, rep), fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
			}
			var wantBits, wantFields string
			inline := newTestPool()
			withProcs(1, func() { wantBits, wantFields = run(inline) })
			check := func(how string, bits, fields string) {
				t.Helper()
				if fields != wantFields {
					t.Errorf("%s: final fields hash %s, inline %s", how, fields, wantFields)
				}
				if bits != wantBits {
					t.Errorf("%s: report differs from the inline run's:\n got  %.600s\n want %.600s", how, bits, wantBits)
				}
			}
			withProcs(c.procs, func() {
				split := newTestPool()
				bits, fields := run(split)
				check("new kit", bits, fields)
				bits, fields = run(split)
				check("warm kit", bits, fields)
				bits, fields = run(inline)
				check("kit built inline", bits, fields)
			})
		})
	}
}
