// Command agcmbench regenerates the paper's tables and figures on the
// simulated Paragon and T3D machines.
//
//	agcmbench -experiment all           # everything, in paper order
//	agcmbench -experiment table8        # one table
//	agcmbench -list                     # valid experiment names
//	agcmbench -calibrate BENCH_10.json  # roofline observe-predict-calibrate loop
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"agcm/internal/bench"
	"agcm/internal/experiments"
)

func main() {
	expName := flag.String("experiment", "all", "experiment id or 'all'")
	steps := flag.Int("steps", 3, "measured time steps per run")
	list := flag.Bool("list", false, "list experiment ids and exit")
	format := flag.String("format", "table", "output format: table or csv")
	bench9JSON := flag.String("bench9-json", "",
		"run the deterministic scheduler comparison over the reference workload and write the JSON report to this file ('-' for stdout)")
	calibrate := flag.String("calibrate", "",
		"run the roofline observe-predict-calibrate loop (host micro+phase benchmarks, deterministic fit, paper-machine grid) and write the JSON report to this file ('-' for stdout)")
	calibOut := flag.String("calib-out", "",
		"with -calibrate: also write the fitted host calibration (canonical JSON) to this file, ready for agcmd -calib <file>")
	topologyStr := flag.String("topology", "",
		"route every run over an interconnect model: auto, mesh[:XxY], torus[:XxYxZ], switch")
	placementStr := flag.String("placement", "",
		"rank placement for -topology: rowmajor, snake, blocked, perm:n0,n1,...")
	flag.Parse()
	if *format != "table" && *format != "csv" {
		fatal(fmt.Errorf("unknown format %q (table, csv)", *format))
	}

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	if *bench9JSON != "" {
		// The virtual-time scheduler comparison.  Unlike the host benchmarks
		// the output is bit-deterministic, so CI diffs the regenerated
		// document against the committed one.
		rep, err := bench.NewBench9Report()
		writeJSON(*bench9JSON, rep, err)
		return
	}
	if *calibrate != "" {
		writeBench10JSON(*calibrate, *calibOut)
		return
	}
	if *calibOut != "" {
		fatal(fmt.Errorf("-calib-out requires -calibrate"))
	}
	opt := experiments.Options{
		MeasuredSteps: *steps,
		Topology:      *topologyStr,
		Placement:     *placementStr,
	}

	var outs []*experiments.Output
	if *expName == "all" {
		all, err := experiments.All(opt)
		if err != nil {
			fatal(err)
		}
		outs = all
	} else {
		out, err := experiments.ByID(*expName, opt)
		if err != nil {
			fatal(err)
		}
		outs = []*experiments.Output{out}
	}
	for _, o := range outs {
		for _, t := range o.Tables {
			if *format == "csv" {
				fmt.Printf("# %s\n%s", t.Title, t.CSV())
			} else {
				fmt.Print(t.Render())
			}
		}
		if *format == "table" {
			for _, n := range o.Notes {
				fmt.Println("  //", n)
			}
		}
		fmt.Println()
	}
}

// writeJSON writes a benchmark report as indented JSON plus a newline: to
// standard output when path is "-", otherwise to the file, announcing it.
func writeJSON(path string, rep any, err error) {
	if err != nil {
		fatal(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if path == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// writeBench10JSON runs the roofline calibration loop: host micro- and
// phase-benchmarks, the deterministic least-squares fit, and the
// paper-machine prediction grid.  The host sections are wall-clock and gated
// by thresholds in CI; the machine sections are deterministic.  When
// calibOut is non-empty the fitted host calibration is also written there as
// canonical JSON for `agcmd -calib <file>`.
func writeBench10JSON(path, calibOut string) {
	rep, err := bench.NewBench10Report()
	writeJSON(path, rep, err)
	if calibOut != "" {
		raw, err := rep.Host.Calib.CanonicalJSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(calibOut, append(raw, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", calibOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "agcmbench:", err)
	os.Exit(2)
}
