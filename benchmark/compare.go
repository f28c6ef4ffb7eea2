package main

// -selfcheck and -compare: the one rule by which two sets of runs are held
// against the benchmark's bounds, so later PRs use these bounds rather than
// inventing their own.

import (
	"encoding/json"
	"fmt"
	"os"
)

// exactMetrics are simulated statistics: a pure function of the inputs, so
// two sets of runs under one seed must report them bit for bit alike,
// whatever happened to host speed in between.
var exactMetrics = map[string]bool{
	"core.virtual_s_per_day":       true,
	"core.filter_share_dyn":        true,
	"core.msgs_per_step":           true,
	"core.bytes_per_step":          true,
	"core.max_wait_share":          true,
	"physics.imbalance_before_pct": true,
	"physics.imbalance_after_pct":  true,
	"filter.lines_per_step":        true,
}

// readDocument loads an -out file and refuses names the benchmark does not
// declare.
func readDocument(path string) (Document, error) {
	var doc Document
	raw, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	for _, r := range doc.Runs {
		if _, ok := workloadDecl(r.Workload); !ok {
			return doc, fmt.Errorf("%s: unknown workload %q", path, r.Workload)
		}
		for name := range r.Metrics {
			if _, ok := metricDecl(name); !ok {
				return doc, fmt.Errorf("%s: unknown metric %q", path, name)
			}
		}
	}
	return doc, nil
}

// appendDocument adds runs to an -out file, so repeated invocations build
// the ten-run sets a claim needs.
func appendDocument(path string, doc Document) error {
	if old, err := readDocument(path); err == nil {
		doc.Runs = append(old.Runs, doc.Runs...)
	} else if !os.IsNotExist(err) {
		return err
	}
	return writeDocument(path, doc)
}

// samples collects a metric's values over a document's runs of one workload.
func (d Document) samples(workload, metric string) (values []float64, seeds map[int64]bool) {
	seeds = make(map[int64]bool)
	for _, r := range d.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			values = append(values, m.Value)
			seeds[r.Seed] = true
		}
	}
	return values, seeds
}

// compareDocuments prints one row per (workload, metric) and returns how
// many end-to-end pairs are worse than their bound allows, or differ where
// they must be equal.  A difference inside the bound is "unresolved", not
// "ok", when the old set's own spread (first to third quartile over its
// median) is wider than the bound, unless every new run beats every old one.
func compareDocuments(a, b Document, beyond string) int {
	fmt.Printf("%-14s %-30s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "B vs A", "bound", "")
	bad := 0
	for _, w := range Workloads {
		for _, list := range [][]MetricDecl{EndToEnd, PerLayer} {
			for _, d := range list {
				va, seedsA := a.samples(w.Name, d.Name)
				vb, seedsB := b.samples(w.Name, d.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ma, mb := median(va), median(vb)
				rel := 0.0
				if ma != 0 {
					rel = (mb - ma) / ma
				}
				worse := rel
				if d.Better == "higher" {
					worse = -rel
				}
				status, bound := "", ""
				switch {
				case d.Bound > 0:
					bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
					spread := 0.0
					if len(va) >= 4 && ma != 0 {
						spread = (quantile(va, 0.75) - quantile(va, 0.25)) / ma
					}
					switch {
					case worse > d.Bound:
						status = beyond
						bad++
					case spread > d.Bound && !allBetter(va, vb, d.Better):
						status = "unresolved"
					default:
						status = "ok"
					}
				case exactMetrics[d.Name] && len(seedsA) == 1 && sameKeys(seedsA, seedsB):
					status = "ok (exact)"
					if ma != mb {
						status = "differs"
						bad++
					}
				}
				fmt.Printf("%-14s %-30s %14.6g %14.6g %+8.2f%% %7s  %s\n", w.Name, d.Name, ma, mb, 100*rel, bound, status)
			}
		}
	}
	return bad
}

func sameKeys(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, better string) bool {
	if better == "higher" {
		return quantile(b, 0) > quantile(a, 1)
	}
	return quantile(b, 1) < quantile(a, 0)
}

func compareFiles(oldPath, newPath string) error {
	a, err := readDocument(oldPath)
	if err != nil {
		return err
	}
	b, err := readDocument(newPath)
	if err != nil {
		return err
	}
	if bad := compareDocuments(a, b, "regressed"); bad > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", bad)
	}
	return nil
}

// selfCheck runs the untraced set twice on this tree, A then B, and holds B
// against A: identical code must agree within the benchmark's own bounds,
// or the bounds are tighter than this host can resolve.
func selfCheck(c config) error {
	var sets [2]Document
	for i := range sets {
		for _, name := range workloadNames() {
			fmt.Fprintf(os.Stderr, "selfcheck: set %c, %s\n", 'A'+i, name)
			c.trace = 0
			run, err := measure(name, c)
			if err != nil {
				return err
			}
			if !run.Correct {
				return fmt.Errorf("%s: %d of %d ops failed: %v", name, run.Failed, run.Attempted, run.Notes)
			}
			sets[i].Runs = append(sets[i].Runs, run)
		}
	}
	if bad := compareDocuments(sets[0], sets[1], "unresolved"); bad > 0 {
		return fmt.Errorf("%d metric(s) differ between two runs of the same code by more than their bound", bad)
	}
	return nil
}
