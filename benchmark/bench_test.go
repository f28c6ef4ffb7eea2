package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the driver's schema for BENCHMARK.json; decoding
// with DisallowUnknownFields makes an extra key a failure.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesDeclaration(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := []string{"bash", "benchmark/run.sh"}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command %v, want %v", b.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths %v, want %v", b.Paths, want)
	}
	if b.RunSeconds != RunSeconds {
		t.Errorf("run_seconds %d, declared %d", b.RunSeconds, RunSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark declares %d", len(b.Workloads), len(Workloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if w.Name != Workloads[i].Name || w.Why != Workloads[i].Why {
			t.Errorf("workload %d is %+v, declared %+v", i, w, Workloads[i])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(EndToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark declares %d", len(b.EndToEnd), len(EndToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		if got := (MetricDecl{m.Name, m.Unit, m.Better, m.Bound}); got != EndToEnd[i] {
			t.Errorf("end-to-end metric %d is %+v, declared %+v", i, got, EndToEnd[i])
		}
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q, bound %g", m.Name, m.Unit, m.Bound)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	if len(b.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark declares %d", len(b.PerLayer), len(PerLayer))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		if got := (MetricDecl{m.Name, m.Unit, m.Better, 0}); got != PerLayer[i] {
			t.Errorf("per-layer metric %d is %+v, declared %+v", i, got, PerLayer[i])
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("per-layer metric %s: unit %q", m.Name, m.Unit)
		}
	}
}

func quickConfig(t *testing.T, trace int) config {
	return config{seed: 1, seconds: RunSeconds, trace: trace, quick: true, scratch: t.TempDir(), traceDir: t.TempDir()}
}

// TestQuickUntraced runs a handful of ops of every workload with tracing
// off: every end-to-end metric is emitted and no op fails.
func TestQuickUntraced(t *testing.T) {
	for _, w := range Workloads {
		run, err := measure(w.Name, quickConfig(t, 0))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !run.Correct || run.Failed != 0 || run.Attempted < 1 {
			t.Errorf("%s: correct %v, %d of %d ops failed: %v", w.Name, run.Correct, run.Failed, run.Attempted, run.Notes)
		}
		if len(run.Metrics) != len(EndToEnd) {
			t.Errorf("%s: %d metrics, want the %d end-to-end ones", w.Name, len(run.Metrics), len(EndToEnd))
		}
		for _, d := range EndToEnd {
			if m, ok := run.Metrics[d.Name]; !ok || !(m.Value > 0) || m.Unit != d.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.Name, d.Name, m, d.Unit)
			}
		}
	}
}

// TestQuickTraced makes a quick traced run: every declared per-layer metric
// is emitted (measure refuses a missing or non-finite one), no op fails,
// every miss ran one simulation, and the span file's parents resolve.
func TestQuickTraced(t *testing.T) {
	c := quickConfig(t, 1)
	run, err := measure(ServeCold, c)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Correct || run.Failed != 0 {
		t.Errorf("correct %v, %d of %d ops failed: %v", run.Correct, run.Failed, run.Attempted, run.Notes)
	}
	if len(run.Metrics) != len(PerLayer) {
		t.Errorf("%d metrics, want the %d per-layer ones", len(run.Metrics), len(PerLayer))
	}
	if runs, misses := run.Metrics["server.runs"].Value, run.Metrics["server.misses"].Value; runs != misses || runs == 0 {
		t.Errorf("server.runs %g, server.misses %g", runs, misses)
	}
	if hits := run.Metrics["server.hits"].Value; hits == 0 {
		t.Error("server.hits is 0: the serve-hot pass hit nothing")
	}
	for _, name := range []string{"gateway.retries", "gateway.hedges", "server.shed", "server.coalesced"} {
		if v := run.Metrics[name].Value; v != 0 {
			t.Errorf("%s = %g, want 0", name, v)
		}
	}
	if v := run.Metrics["gateway.attempts_per_req"].Value; v != 1 {
		t.Errorf("gateway.attempts_per_req = %g, want 1", v)
	}

	files, err := filepath.Glob(filepath.Join(c.traceDir, "trace-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("span files %v, %v", files, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string           `json:"name"`
			Ts   float64          `json:"ts"`
			Dur  float64          `json:"dur"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatal(err)
	}
	type interval struct {
		start, end float64
		request    int64
	}
	byID := make(map[int64]interval)
	names := make(map[string]int)
	for _, e := range trace.TraceEvents {
		byID[e.Args["id"]] = interval{e.Ts, e.Ts + e.Dur, e.Args["request"]}
		names[e.Name]++
	}
	for _, want := range []string{"load.request", "gateway.handle", "server.handle", "core.run"} {
		if names[want] == 0 {
			t.Errorf("no %s span in the file", want)
		}
	}
	const slack = 1e-3 // µs: ts and dur are rounded separately
	for _, e := range trace.TraceEvents {
		parent := e.Args["parent"]
		if parent == 0 {
			continue
		}
		p, ok := byID[parent]
		switch {
		case !ok:
			t.Fatalf("span %d (%s): parent %d is not in the file", e.Args["id"], e.Name, parent)
		case e.Ts < p.start-slack || e.Ts+e.Dur > p.end+slack:
			t.Fatalf("span %d (%s) is not nested inside its parent", e.Args["id"], e.Name)
		case e.Args["request"] != p.request:
			t.Fatalf("span %d (%s) and its parent carry different request identifiers", e.Args["id"], e.Name)
		}
	}
}

func TestCommandRefusesUnknownNames(t *testing.T) {
	for _, w := range []string{"", "nope", "serve hot", "single-rank;"} {
		c := quickConfig(t, 0)
		c.workload = w
		if err := runCommand(c); err == nil {
			t.Errorf("workload %q was accepted", w)
		}
	}
	c := quickConfig(t, 2)
	c.workload = SingleRank
	if err := runCommand(c); err == nil {
		t.Error("-trace 2 was accepted")
	}

	path := filepath.Join(t.TempDir(), "doc.json")
	doc := Document{Runs: []Run{{Workload: SingleRank, Result: Result{Metrics: map[string]Metric{"op_ms_p99": {1, "ms"}}}}}}
	if err := writeDocument(path, doc); err != nil {
		t.Fatal(err)
	}
	if _, err := readDocument(path); err == nil {
		t.Error("a document with an undeclared metric name was accepted")
	}
}

// TestCompareAppliesTheBounds pins the one comparison rule: worse than the
// bound in the metric's bad direction regresses, anything else does not.
func TestCompareAppliesTheBounds(t *testing.T) {
	doc := func(opMS, opsPerS float64) Document {
		return Document{Runs: []Run{{Workload: ServeHot, Seed: 1, Result: Result{Metrics: map[string]Metric{
			"op_ms_p50": {opMS, "ms"}, "ops_per_s": {opsPerS, "1/s"},
		}}}}}
	}
	bound := EndToEnd[0].Bound // op_ms_p50 and ops_per_s share it
	for _, tc := range []struct {
		name string
		b    Document
		bad  int
	}{
		{"equal", doc(1, 1000), 0},
		{"inside the bound", doc(1+0.9*bound, 1000*(1-0.9*bound)), 0},
		{"better in both directions", doc(0.5, 2000), 0},
		{"latency beyond the bound", doc(1+1.1*bound, 1000), 1},
		{"throughput beyond the bound", doc(1, 1000*(1-1.1*bound)), 1},
	} {
		if bad := compareDocuments(doc(1, 1000), tc.b, "regressed"); bad != tc.bad {
			t.Errorf("%s: %d regressions, want %d", tc.name, bad, tc.bad)
		}
	}
}
