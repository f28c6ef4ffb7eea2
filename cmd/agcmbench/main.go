// Command agcmbench regenerates the paper's tables and figures on the
// simulated Paragon and T3D machines.  Everything `-experiment` prints is
// virtual-time and bit-deterministic; the committed RESULTS.txt is the
// output of `-experiment all` at the default -steps, and CI diffs it.
//
//	agcmbench -experiment all > RESULTS.txt  # everything, in paper order
//	agcmbench -experiment table8             # one table
//	agcmbench -list                          # valid experiment names
//	agcmbench -calibrate host.json           # fit this host's roofline for agcmd -calib
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"agcm/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind its process edges, so tests drive it
// in-process: it returns the exit status instead of exiting.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("agcmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	expName := fs.String("experiment", "all", "experiment id or 'all'")
	steps := fs.Int("steps", 3, "measured time steps per run (RESULTS.txt is produced at the default)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	format := fs.String("format", "table", "output format: table or csv")
	calibrate := fs.String("calibrate", "",
		"time real runs on this host (micro ceilings, phase benchmarks), fit the roofline efficiencies, print predicted vs measured, and write the fitted calibration (canonical JSON) to this `file`, ready for agcmd -calib <file>")
	topologyStr := fs.String("topology", "",
		"route every run over an interconnect model: auto, mesh[:XxY], torus[:XxYxZ], switch")
	placementStr := fs.String("placement", "",
		"rank placement for -topology: rowmajor, snake, blocked, perm:n0,n1,...")
	if err := fs.Parse(args); err != nil {
		return 2 // the flag package has already said why
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "agcmbench:", err)
		return 2
	}
	switch {
	case *format != "table" && *format != "csv":
		return fail(fmt.Errorf("unknown format %q (table, csv)", *format))
	case *steps < 1:
		return fail(fmt.Errorf("-steps %d out of range (must be >= 1)", *steps))
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(experiments.IDs(), "\n"))
		return 0
	}
	if *calibrate != "" {
		out, calib, err := calibrateHost()
		if err != nil {
			return fail(err)
		}
		render(stdout, out, *format)
		raw, err := calib.CanonicalJSON()
		if err == nil {
			err = os.WriteFile(*calibrate, append(raw, '\n'), 0o644)
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *calibrate)
		return 0
	}
	opt := experiments.Options{
		MeasuredSteps: *steps,
		Topology:      *topologyStr,
		Placement:     *placementStr,
	}

	var outs []*experiments.Output
	var err error
	if *expName == "all" {
		outs, err = experiments.All(opt)
	} else {
		outs = make([]*experiments.Output, 1)
		outs[0], err = experiments.ByID(*expName, opt)
	}
	if err != nil {
		return fail(err)
	}
	for _, o := range outs {
		render(stdout, o, *format)
	}
	return 0
}

// render prints one experiment: its tables, its notes (table format only)
// and a blank separator line.
func render(w io.Writer, o *experiments.Output, format string) {
	for _, t := range o.Tables {
		if format == "csv" {
			fmt.Fprintf(w, "# %s\n%s", t.Title, t.CSV())
		} else {
			fmt.Fprint(w, t.Render())
		}
	}
	if format == "table" {
		for _, n := range o.Notes {
			fmt.Fprintln(w, "  //", n)
		}
	}
	fmt.Fprintln(w)
}
