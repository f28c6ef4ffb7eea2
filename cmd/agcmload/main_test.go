package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"agcm/internal/gateway"
	"agcm/internal/server"
)

// tinySpec is 24 requests over 2x3 distinct configs, so every key repeats
// and hits, misses and (under load) coalesced responses all occur.
const tinySpec = `{"name":"tiny","seed":3,"requests":24,"arrival":{"rate_per_sec":400},
 "classes":[{"name":"interactive","pool":{"distinct":3}},
            {"name":"batch","pool":{"distinct":3},"template":{"mesh_px":2,"filter":"convolution-ring"}}]}`

func writeSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tiny.json")
	if err := os.WriteFile(path, []byte(tinySpec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// startAgcmd serves a fresh in-process agcmd, optionally behind wrap.
func startAgcmd(t *testing.T, wrap func(http.Handler) http.Handler) string {
	t.Helper()
	s, err := server.New(server.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Error(err)
		}
	})
	return ts.URL
}

// startGateway serves an in-process agcmgw over the given backends.
func startGateway(t *testing.T, backends ...string) string {
	t.Helper()
	g, err := gateway.New(gateway.Options{Backends: backends, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() { ts.Close(); g.Close() })
	return ts.URL
}

// answerFirstRun wraps a daemon so that the first POST /v1/run is answered by
// reply in front of it — the daemon never sees or counts that request — and
// everything else passes through.
func answerFirstRun(reply http.HandlerFunc) func(http.Handler) http.Handler {
	var answered atomic.Bool
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/run" && answered.CompareAndSwap(false, true) {
				reply(w, r)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// load runs the command in-process and decodes the report it printed.
func load(t *testing.T, args ...string) (code int, rep benchReport, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	if out.Len() > 0 {
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatalf("report is not JSON: %v\n%s", err, out.String())
		}
	}
	return code, rep, out.String(), errb.String()
}

// targetArgs boots the stack a -target names and returns the flags that
// point agcmload at it.
func targetArgs(t *testing.T, target string) []string {
	b1 := startAgcmd(t, nil)
	if target != "gateway" {
		return []string{"-addr", b1}
	}
	b2 := startAgcmd(t, nil)
	return []string{"-target", "gateway", "-backends", b1 + "," + b2, "-addr", startGateway(t, b1, b2)}
}

func TestSpecReconciles(t *testing.T) {
	spec := writeSpec(t)
	for _, target := range []string{"agcmd", "gateway"} {
		for _, accept := range []string{"json", "frame"} {
			t.Run(target+"/"+accept, func(t *testing.T) {
				args := append(targetArgs(t, target), "-spec", spec, "-accept", accept)
				code, rep, stdout, stderr := load(t, args...)
				if code != 0 || !rep.Reconciled {
					t.Fatalf("exit %d, reconciled %v\n%s", code, rep.Reconciled, stderr)
				}
				if rep.Requests != 24 || rep.StatusCounts["200"] != 24 || rep.DistinctKeys != 6 {
					t.Errorf("requests %d, statuses %v, distinct keys %d; want 24 200s over 6 keys",
						rep.Requests, rep.StatusCounts, rep.DistinctKeys)
				}
				if rep.Spec.Name != "tiny" || rep.Spec.SpecSHA256 == "" || rep.Spec.ResponseSetSHA256 == "" {
					t.Errorf("spec section incomplete: %+v", rep.Spec)
				}
				if issued := rep.Spec.PerClass["interactive"].Issued + rep.Spec.PerClass["batch"].Issued; issued != 24 {
					t.Errorf("per-class issued sums to %d, want 24", issued)
				}
				if (rep.Gateway != nil) != (target == "gateway") {
					t.Errorf("gateway section present = %v for target %s", rep.Gateway != nil, target)
				}
				// The retired flags' echo fields are gone from the document.
				var doc map[string]json.RawMessage
				if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
					t.Fatal(err)
				}
				for _, retired := range []string{"concurrency", "dup_ratio", "zipf", "steps", "seed"} {
					if _, ok := doc[retired]; ok {
						t.Errorf("report still carries %q", retired)
					}
				}
			})
		}
	}
}

// A response that is not what was asked for is a failed run (exit 1), not an
// inconsistency: here a backend answers a frame-mode client with JSON.
func TestMalformedResponseFailsTheRun(t *testing.T) {
	jsonOnly := answerFirstRun(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"key":"phantom"}`))
	})
	code, _, stdout, stderr := load(t, "-spec", writeSpec(t), "-accept", "frame", "-addr", startAgcmd(t, jsonOnly))
	if code != 1 || stdout != "" {
		t.Fatalf("exit %d, want 1 and no report\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, `content-type "application/json", want "application/x-agcm-frame"`) {
		t.Errorf("stderr does not name the content type:\n%s", stderr)
	}
}

// The spec is the replayable artifact: dispatching it again against a fresh
// daemon sends the same schedule and gets the same bytes back.
func TestSpecRerunIsIdentical(t *testing.T) {
	spec := writeSpec(t)
	var reps [2]benchReport
	for i := range reps {
		code, rep, _, stderr := load(t, "-spec", spec, "-addr", startAgcmd(t, nil))
		if code != 0 {
			t.Fatalf("run %d: exit %d\n%s", i, code, stderr)
		}
		reps[i] = rep
	}
	if a, b := reps[0].Spec.ScheduleSHA256, reps[1].Spec.ScheduleSHA256; a != b || a == "" {
		t.Errorf("schedule hash changed across runs: %q vs %q", a, b)
	}
	if a, b := reps[0].Spec.ResponseSetSHA256, reps[1].Spec.ResponseSetSHA256; a != b {
		t.Errorf("response-set hash changed across runs: %s vs %s", a, b)
	}
}

// A serving layer that changes one byte of a key's body between two 200s
// must fail the run.
func TestChangedResponseBytesFail(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[string]bool)
	flipOnce := false
	corrupt := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/run" {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			var parsed struct {
				Key string `json:"key"`
			}
			if rec.Code == http.StatusOK && json.Unmarshal(body, &parsed) == nil {
				mu.Lock()
				if seen[parsed.Key] && !flipOnce {
					flipOnce = true
					body = bytes.Replace(body, []byte(`"steps":1`), []byte(`"steps":3`), 1)
				}
				seen[parsed.Key] = true
				mu.Unlock()
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
	code, rep, _, stderr := load(t, "-spec", writeSpec(t), "-addr", startAgcmd(t, corrupt))
	if code != 2 || rep.Reconciled {
		t.Fatalf("exit %d, reconciled %v; want 2, false\n%s", code, rep.Reconciled, stderr)
	}
	if !strings.Contains(stderr, "INCONSISTENT") || !strings.Contains(stderr, "response bytes changed") {
		t.Errorf("stderr does not name the changed bytes:\n%s", stderr)
	}
}

// A 200 the daemon never counted (answered in front of it) must break the
// /metrics reconciliation.
func TestUncountedResponseFails(t *testing.T) {
	intercept := answerFirstRun(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Agcmd-Cache", "miss")
		w.Write([]byte(`{"key":"phantom"}`))
	})
	code, rep, _, stderr := load(t, "-spec", writeSpec(t), "-addr", startAgcmd(t, intercept))
	if code != 2 || rep.Reconciled {
		t.Fatalf("exit %d, reconciled %v; want 2, false\n%s", code, rep.Reconciled, stderr)
	}
	if !strings.Contains(stderr, "INCONSISTENT") || !strings.Contains(stderr, "advanced by") {
		t.Errorf("stderr does not name the counter gap:\n%s", stderr)
	}
}

// -retry429 honors Retry-After and reissues; the shed and the reissue are
// both tallied.  The 429 here is answered in front of the daemon, so the run
// also reports the shed counter it never saw advance.
func TestRetry429ReissuesTheRequest(t *testing.T) {
	shedOnce := answerFirstRun(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
	})
	code, rep, _, stderr := load(t, "-spec", writeSpec(t), "-retry429", "1", "-addr", startAgcmd(t, shedOnce))
	if rep.Requests != 25 || rep.Retried429 != 1 || rep.StatusCounts["429"] != 1 || rep.StatusCounts["200"] != 24 {
		t.Errorf("requests %d, retried_429 %d, statuses %v; want 25, 1, one 429 and 24 200s",
			rep.Requests, rep.Retried429, rep.StatusCounts)
	}
	if code != 2 || !strings.Contains(stderr, `agcmd_requests_total{result="shed"} advanced by 0, client observed 1`) {
		t.Errorf("exit %d; the phantom shed went unreported:\n%s", code, stderr)
	}
}

func TestUsageErrors(t *testing.T) {
	spec := writeSpec(t)
	cases := []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"retired -requests", []string{"-spec", spec, "-requests", "5"}, "flag provided but not defined: -requests"},
		{"retired -concurrency", []string{"-spec", spec, "-concurrency", "8"}, "flag provided but not defined: -concurrency"},
		{"retired -dup", []string{"-spec", spec, "-dup", "0.5"}, "flag provided but not defined: -dup"},
		{"retired -zipf", []string{"-spec", spec, "-zipf", "1.3"}, "flag provided but not defined: -zipf"},
		{"retired -steps", []string{"-spec", spec, "-steps", "1"}, "flag provided but not defined: -steps"},
		{"retired -seed", []string{"-spec", spec, "-seed", "1"}, "flag provided but not defined: -seed"},
		{"retired -replay", []string{"-spec", spec, "-replay", "trace.bin"}, "flag provided but not defined: -replay"},
		{"retired -record", []string{"-spec", spec, "-record", "trace.bin"}, "flag provided but not defined: -record"},
		{"no -spec", nil, "-spec FILE is required"},
		{"-dump-spec alone", []string{"-dump-spec"}, "-spec FILE is required"},
		{"unknown -target", []string{"-spec", spec, "-target", "cluster"}, "unknown -target"},
		{"unknown -accept", []string{"-spec", spec, "-accept", "xml"}, "unknown -accept"},
		{"zero -timescale", []string{"-spec", spec, "-timescale", "0"}, "-timescale 0 out of range"},
		{"gateway without -backends", []string{"-spec", spec, "-target", "gateway"}, "gateway mode needs -backends"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stdout, stderr := load(t, tc.args...)
			if code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not contain %q", stderr, tc.want)
			}
			if stdout != "" {
				t.Errorf("a usage error printed a report: %s", stdout)
			}
		})
	}
}

func TestDumpSpecPrintsCanonicalJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-spec", "../../workloads/scheduling.json", "-dump-spec"}, &stdout, &stderr)
	disk, err := os.ReadFile("../../workloads/scheduling.json")
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 || stdout.String() != string(disk) {
		t.Errorf("exit %d; -dump-spec of a canonical file is not a no-op:\n%s\n%s", code, &stdout, &stderr)
	}
}
