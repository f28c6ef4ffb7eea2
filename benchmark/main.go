// Command benchmark is the repo's one yardstick: five named workloads over
// the whole stack, five end-to-end metrics with fixed regression bounds,
// per-layer probes and a traced run.  See README.md in this directory.
//
//	bash benchmark/run.sh --workload <name|all> --seed N --seconds S --trace <0|1>
//	bash benchmark/run.sh --selfcheck
//	bash benchmark/run.sh --compare OLD.json NEW.json
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"agcm/internal/core"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the contract's last line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Run is one Result with what produced it; -out files hold a list of them.
type Run struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Trace    int      `json:"trace"`
	Seconds  float64  `json:"seconds"`
	Samples  int      `json:"samples"` // ops behind op_ms_p50
	Notes    []string `json:"notes,omitempty"`
	Result
}

// Document is what -out writes and -compare reads.
type Document struct {
	GoVersion string `json:"go_version"`
	Nproc     int    `json:"nproc"`
	Runs      []Run  `json:"runs"`
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	out      string
	scratch  string
	traceDir string
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "workload name, or all")
	flag.Int64Var(&c.seed, "seed", 1, "seeds the generated inputs; 2 is the held-out seed a claiming PR must also pass")
	flag.Float64Var(&c.seconds, "seconds", RunSeconds, "length of the timed phase")
	flag.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&c.quick, "quick", false, "a handful of ops per workload (smoke test; the numbers mean nothing)")
	flag.StringVar(&c.out, "out", "", "also append the runs to this JSON file (the input of -compare)")
	flag.StringVar(&c.scratch, "scratch", filepath.Join(".bench_build", "tmp"), "directory for temporary files")
	flag.StringVar(&c.traceDir, "trace-dir", filepath.Join("benchmark", "out"), "directory for the Chrome trace of a traced run")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced set twice and compare the two under the bounds")
	compare := flag.Bool("compare", false, "compare two -out files: -compare OLD.json NEW.json")
	updateGolden := flag.Bool("update-golden", false, "rewrite benchmark/testdata/golden.json from this tree")
	flag.Parse()

	var err error
	switch {
	case *updateGolden:
		err = writeGoldens(c)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two files")
			break
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case *selfcheck:
		err = selfCheck(c)
	default:
		err = runCommand(c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runCommand runs one workload, or all of them in turn.
func runCommand(c config) error {
	if c.trace != 0 && c.trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", c.trace)
	}
	if c.seed < 0 || c.seconds <= 0 {
		return fmt.Errorf("-seed must not be negative and -seconds must be positive")
	}
	names := []string{c.workload}
	if c.workload == "all" {
		names = workloadNames()
	} else if _, ok := workloadDecl(c.workload); !ok {
		return fmt.Errorf("unknown workload %q: want one of %v or all", c.workload, workloadNames())
	}
	doc := Document{GoVersion: runtime.Version(), Nproc: runtime.NumCPU()}
	fmt.Printf("# go %s, nproc %d, GOMAXPROCS %d, seed %d, %.0f s timed phase, trace %d\n",
		doc.GoVersion, doc.Nproc, runtime.GOMAXPROCS(0), c.seed, c.seconds, c.trace)
	failed := false
	for _, name := range names {
		run, err := measure(name, c)
		if err != nil {
			return err
		}
		doc.Runs = append(doc.Runs, run)
		printRun(run)
		failed = failed || !run.Correct
	}
	if c.out != "" {
		if err := appendDocument(c.out, doc); err != nil {
			return err
		}
	}
	if len(doc.Runs) == 1 {
		last, err := json.Marshal(doc.Runs[0].Result)
		if err != nil {
			return err
		}
		fmt.Println(string(last))
	}
	if failed {
		return fmt.Errorf("fail_ratio > 0: some ops failed their correctness checks")
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		names[i] = w.Name
	}
	return names
}

// measure makes one run of one workload: untraced for the end-to-end
// metrics, or traced for the per-layer ones.
func measure(name string, c config) (Run, error) {
	run := Run{Workload: name, Seed: c.seed, Trace: c.trace, Seconds: c.seconds}
	o := options{seed: c.seed, seconds: c.seconds, quick: c.quick, setups: 3, scratch: c.scratch, clock: newHostClock()}
	defer o.clock.stop()
	if c.quick {
		o.setups = 1
	}
	var p *pass
	var values map[string]float64
	var decls []MetricDecl
	var err error
	if c.trace == 0 {
		if p, err = runWorkload(name, o); err != nil {
			return run, err
		}
		values, decls = p.endToEnd(), EndToEnd
	} else {
		if p, values, err = tracedRun(name, o, c.traceDir); err != nil {
			return run, err
		}
		decls = PerLayer
	}
	run.Samples = len(p.ops)
	run.Notes = append(p.notes, p.failures...)
	run.Result = Result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: make(map[string]Metric)}
	if p.attempted < 1 {
		return run, fmt.Errorf("%s: no op was attempted", name)
	}
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return run, fmt.Errorf("%s: metric %s was not measured (%v)", name, d.Name, v)
		}
		run.Metrics[d.Name] = Metric{v, d.Unit}
	}
	for k := range values {
		if _, ok := metricDecl(k); !ok {
			return run, fmt.Errorf("%s: measured an undeclared metric %s", name, k)
		}
	}
	return run, nil
}

// tracedRun makes the traced pass over the asked workload at full length and
// a quick traced pass over each of the others, so every layer's metrics are
// measured in every traced run; then the layer probes.  It returns the asked
// workload's pass and the per-layer values.
func tracedRun(name string, o options, traceDir string) (*pass, map[string]float64, error) {
	o.setups = 1
	passes := make(map[string]*pass)
	values := make(map[string]float64)
	for _, w := range Workloads {
		wo := o
		wo.tr = newTracer()
		wo.quick = o.quick || w.Name != name
		p, err := runWorkload(w.Name, wo)
		if err != nil {
			return nil, nil, fmt.Errorf("%s (traced): %w", w.Name, err)
		}
		if err := wo.tr.check(); err != nil {
			return nil, nil, fmt.Errorf("%s trace: %w", w.Name, err)
		}
		passes[w.Name] = p
		for k, v := range p.layer {
			// core.*, the roofline residual and the tracing overhead describe
			// the asked workload; every other metric has one owner.
			if workloadSpecific(k) && w.Name != name {
				continue
			}
			values[k] = v
		}
		if w.Name == name {
			path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.json", name, o.seed))
			lanes := serveClients()
			meta := map[string]any{"workload": name, "seed": o.seed}
			if err := wo.tr.writeChrome(path, lanes, meta); err != nil {
				return nil, nil, err
			}
			p.notes = append(p.notes, fmt.Sprintf("%d spans, Chrome trace in %s", len(wo.tr.spans), path))
		}
	}
	// With 240 goroutines on 2 cores wall-clock scaling across rank counts
	// means nothing; the per-step cost ratio is what is reported.
	single, mesh := passes[SingleRank], passes[Mesh240FFT]
	_, singleSteps := modelConfig(SingleRank, o.seed)
	_, meshSteps := modelConfig(Mesh240FFT, o.seed)
	values["core.parallel_overhead_ratio"] = (median(mesh.tracedOps) / float64(meshSteps+2)) /
		(median(single.tracedOps) / float64(singleSteps+2))

	probes, err := layerProbes(o.quick, passes[Mesh240Conv].last.PhysicsLoads)
	if err != nil {
		return nil, nil, fmt.Errorf("layer probes: %w", err)
	}
	for k, v := range probes {
		values[k] = v
	}
	return passes[name], values, nil
}

// workloadSpecific reports whether a per-layer metric describes the asked
// workload's own pass rather than a fixed owner's.
func workloadSpecific(metric string) bool {
	switch metric {
	case "roofline.residual_pct", "trace.overhead_ratio":
		return true
	}
	return len(metric) > 5 && metric[:5] == "core."
}

func printRun(r Run) {
	fmt.Printf("\n%s  seed %d  trace %d  attempted %d  failed %d  (%d untraced op samples)\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.Samples)
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-30s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	if r.Attempted > 0 {
		fmt.Printf("  %-30s %14.6g ratio\n", "fail_ratio", float64(r.Failed)/float64(r.Attempted))
	}
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

func writeDocument(path string, doc Document) error {
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// writeGoldens regenerates testdata/golden.json: one signature per model
// workload and wind offset, and the served body hash of pool index 0.
func writeGoldens(c config) error {
	g := goldens{Model: make(map[string][]signature)}
	for _, name := range []string{SingleRank, Mesh240FFT, Mesh240Conv} {
		for seed := int64(0); seed < windOffsets; seed++ {
			cfg, steps := modelConfig(name, seed)
			rep, err := core.Run(cfg, steps)
			if err != nil {
				return err
			}
			g.Model[name] = append(g.Model[name], signatureOf(rep))
		}
	}
	sum, err := servedBodyHash(c.scratch)
	if err != nil {
		return err
	}
	g.ServePool0Body = sum
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("benchmark", "testdata", "golden.json"), append(raw, '\n'), 0o644)
}
