package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"agcm/internal/core"
)

// failingOracle never prices a job: the shape of a roofline oracle handed a
// config outside its calibration.
type failingOracle struct{ calls atomic.Int64 }

func (o *failingOracle) Name() string { return "failing" }

func (o *failingOracle) PredictSeconds(cfg core.Config, steps int) (float64, error) {
	o.calls.Add(1)
	return 0, fmt.Errorf("unpriceable")
}

// recordingOracle prices every job at a fixed value and counts consultations.
type recordingOracle struct {
	calls   atomic.Int64
	seconds float64
}

func (o *recordingOracle) Name() string { return "recording" }

func (o *recordingOracle) PredictSeconds(cfg core.Config, steps int) (float64, error) {
	o.calls.Add(1)
	return o.seconds, nil
}

// TestSJFCostZeroSentinelIsFCFS pins the fallback ordering contract at the
// scheduler level: unpriced jobs (cost 0) pop before every priced job, and
// among themselves in arrival order — sjf degrades to fcfs, never sheds.
func TestSJFCostZeroSentinelIsFCFS(t *testing.T) {
	s, err := NewScheduler("sjf", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	costs := []float64{4, 0, 9, 0, 1, 0}
	for i, c := range costs {
		if !s.Push(schedJob(uint64(i+1), Batch, c)) {
			t.Fatalf("push %d shed", i+1)
		}
	}
	want := []uint64{2, 4, 6, 5, 1, 3} // sentinels in arrival order, then by cost
	for i, j := range popAll(t, s, len(costs)) {
		if j.Seq != want[i] {
			t.Fatalf("pop %d: seq %d, want %d", i, j.Seq, want[i])
		}
	}
}

// TestServerOracleFallbackNeverSheds drives the sjf server with an oracle
// that fails on every job: each request must still be admitted and run.
func TestServerOracleFallbackNeverSheds(t *testing.T) {
	oracle := &failingOracle{}
	var ran atomic.Int64
	s := mustNew(t, Options{
		Workers:    2,
		Scheduler:  "sjf",
		CostOracle: oracle,
		Runner: func(ctx context.Context, cfg core.Config, steps int) (*core.Report, error) {
			ran.Add(1)
			return stubReport(cfg, steps), nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	const n = 6
	for i := 0; i < n; i++ {
		status, _, body := postRun(t, ts.URL, reqJSON([2]int{1, 1}, "fft", i+1))
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, status, body)
		}
	}
	if got := ran.Load(); got != n {
		t.Fatalf("%d runs executed, want %d", got, n)
	}
	if got := oracle.calls.Load(); got != n {
		t.Fatalf("oracle consulted %d times, want %d", got, n)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`agcmd_requests_total{result="predict_fallback"} %d`, n)
	if !strings.Contains(string(raw), want) {
		t.Fatalf("metrics missing %q:\n%s", want, raw)
	}
}

// TestServerConsultsCustomOracle checks the Options.CostOracle seam: under
// sjf a working oracle is consulted once per admitted job; under the
// policies that never read Job.Cost it is not consulted at all.
func TestServerConsultsCustomOracle(t *testing.T) {
	for _, tc := range []struct {
		policy string
		want   int64
	}{{"fcfs", 0}, {"priority", 0}, {"sjf", 1}} {
		t.Run(tc.policy, func(t *testing.T) {
			oracle := &recordingOracle{seconds: 3.25}
			s := mustNew(t, Options{
				Workers:    1,
				Scheduler:  tc.policy,
				CostOracle: oracle,
				Runner: func(ctx context.Context, cfg core.Config, steps int) (*core.Report, error) {
					return stubReport(cfg, steps), nil
				},
			})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer s.Drain(context.Background())

			if status, _, body := postRun(t, ts.URL, reqJSON([2]int{1, 2}, "fft", 2)); status != http.StatusOK {
				t.Fatalf("status %d, body %s", status, body)
			}
			if got := oracle.calls.Load(); got != tc.want {
				t.Fatalf("oracle consulted %d times, want %d", got, tc.want)
			}
			// A cache hit must not re-consult the oracle: pricing happens
			// only on admission.
			if status, _, _ := postRun(t, ts.URL, reqJSON([2]int{1, 2}, "fft", 2)); status != http.StatusOK {
				t.Fatal("cache hit failed")
			}
			if got := oracle.calls.Load(); got != tc.want {
				t.Fatalf("cache hit re-consulted the oracle (%d calls)", got)
			}
		})
	}
}

// TestServerDefaultOracleIsHostRoofline: a nil Options.CostOracle is the
// roofline predictor on the built-in host model, not a second predictor.
func TestServerDefaultOracleIsHostRoofline(t *testing.T) {
	s := mustNew(t, Options{Scheduler: "sjf"})
	defer s.Drain(context.Background())
	if got := s.opt.CostOracle.Name(); got != "roofline:Host CPU" {
		t.Fatalf("default oracle %q, want roofline:Host CPU", got)
	}
}
