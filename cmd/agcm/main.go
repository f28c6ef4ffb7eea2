// Command agcm runs one configured parallel AGCM simulation on a simulated
// machine and prints the per-component timing breakdown in seconds per
// simulated day, plus the load-imbalance diagnostics.
//
// Example:
//
//	agcm -machine paragon -mesh 8x30 -filter fft-lb -physics pairwise -layers 9 -steps 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"agcm/internal/core"
	"agcm/internal/diag"
	"agcm/internal/dynamics"
	"agcm/internal/fault"
	"agcm/internal/grid"
	"agcm/internal/history"
	"agcm/internal/machine"
	"agcm/internal/physics"
	"agcm/internal/sim"
	"agcm/internal/stats"
	"agcm/internal/topology"
	"agcm/internal/trace"
)

func parseMesh(s string) (py, px int, err error) {
	if _, err := fmt.Sscanf(strings.ToLower(s), "%dx%d", &py, &px); err != nil {
		return 0, 0, fmt.Errorf("invalid mesh %q (want e.g. 8x30)", s)
	}
	return py, px, nil
}

// Filter and scheme names parse through the shared canonical-name tables
// (core.FilterVariantByName, physics.SchemeByName) so the CLI, the serving
// daemon and canonical configs accept exactly the same vocabulary.

func main() {
	machName := flag.String("machine", "paragon", "machine model: paragon, t3d or sp2")
	meshStr := flag.String("mesh", "4x4", "processor mesh PyxPx (latitude x longitude)")
	filterStr := flag.String("filter", "fft-lb",
		"filter: conv, conv-tree, fft, fft-lb, fft-rowwise, polar-diffusion, none")
	schemeStr := flag.String("physics", "none", "physics load balancing: none, shuffle, greedy, pairwise")
	rounds := flag.Int("rounds", 2, "pairwise balancing rounds per step")
	layers := flag.Int("layers", 9, "vertical layers (paper: 9 or 15)")
	steps := flag.Int("steps", 3, "measured time steps (after warmup)")
	dt := flag.Float64("dt", 0, "time step in seconds (0 = CFL-derived)")
	profile := flag.Bool("profile", false, "print per-rank utilization and a share-bar chart")
	traceFile := flag.String("tracefile", "", "write a Chrome trace-event JSON timeline to this path")
	saveState := flag.String("save-state", "", "write the final model state to this checkpoint file")
	loadState := flag.String("load-state", "", "restore the initial state from this checkpoint file")
	faultSpec := flag.String("fault-spec", "",
		"inject faults, e.g. 'seed=42;slow:rank=3,at=1.5,factor=4;crash:rank=1,at=9;jitter:max=2e-4;drop:prob=0.01,retries=4,timeout=5e-3'")
	checkpointEvery := flag.Int("checkpoint-every", 0,
		"checkpoint the model state every N measured steps (0 = off); the last checkpoint survives a crashed run")
	topologyStr := flag.String("topology", "",
		"model the interconnect: none, auto (machine's own), mesh[:XxY], torus[:XxYxZ], switch")
	placementStr := flag.String("placement", "",
		"rank placement on the topology: rowmajor, snake, blocked, perm:n0,n1,...")
	commMatrixFile := flag.String("comm-matrix", "",
		"write the rank-by-rank communication matrix JSON to this path ('-' prints the hottest pairs instead)")
	flag.Parse()

	mach, err := machine.ByName(*machName)
	if err != nil {
		fatal(err)
	}
	py, px, err := parseMesh(*meshStr)
	if err != nil {
		fatal(err)
	}
	fv, err := core.FilterVariantByName(*filterStr)
	if err != nil {
		fatal(err)
	}
	scheme, err := physics.SchemeByName(*schemeStr)
	if err != nil {
		fatal(err)
	}

	cfg := core.Config{
		Spec:          grid.TwoByTwoPointFive(*layers),
		Machine:       mach,
		MeshPy:        py,
		MeshPx:        px,
		Filter:        fv,
		PhysicsScheme: scheme,
		PhysicsRounds: *rounds,
		Dt:            *dt,
		// The event log also feeds the communication matrix and the
		// topology contention replay, the one source of the link table.
		EventLog: *traceFile != "" || *commMatrixFile != "" ||
			(*topologyStr != "" && *topologyStr != "none"),
		CaptureState:    *saveState != "",
		CheckpointEvery: *checkpointEvery,
		Topology:        *topologyStr,
		Placement:       *placementStr,
	}
	if *faultSpec != "" {
		spec, err := fault.Parse(*faultSpec)
		if err != nil {
			fatal(err)
		}
		cfg.Fault = spec
		fmt.Printf("fault injection active: %s\n", spec)
	}
	if *loadState != "" {
		f, err := os.Open(*loadState)
		if err != nil {
			fatal(err)
		}
		file, err := history.Read(f)
		if err != nil {
			fatal(fmt.Errorf("reading checkpoint: %w", err))
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		cfg.InitialState = file
		fmt.Printf("restored checkpoint %s (step %d)\n", *loadState, file.Step)
	}
	rep, err := core.Run(cfg, *steps)
	if err != nil {
		// A faulted run can still leave usable checkpoints behind; rescue
		// the last one so the operator can restart with -load-state.
		if rep != nil && len(rep.Checkpoints) > 0 {
			last := rep.Checkpoints[len(rep.Checkpoints)-1]
			fmt.Fprintf(os.Stderr, "agcm: run failed after %d checkpoint(s); last completed at step %d\n",
				len(rep.Checkpoints), last.Step)
			if *saveState != "" {
				writeCheckpoint(*saveState, last)
				fmt.Fprintf(os.Stderr, "agcm: rescued checkpoint written to %s (restart with -load-state %s)\n",
					*saveState, *saveState)
			}
		}
		fatal(err)
	}

	fmt.Printf("AGCM 2x2.5x%d on %s, %dx%d mesh (%d nodes), filter=%s, physics=%s\n",
		*layers, mach.Name, py, px, rep.Ranks, fv, scheme)
	fmt.Printf("dt=%.0fs (%d steps/simulated day), measured %d steps\n\n",
		86400/float64(rep.StepsPerDay), rep.StepsPerDay, rep.Steps)

	tbl := &stats.Table{Header: []string{"Component", "s/simulated day", "share of total"}}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"Spectral filtering", rep.FilterTime},
		{"Finite differences", rep.FDTime},
		{"Ghost exchange (incl. wait)", rep.CommTime},
		{"Dynamics (critical path)", rep.Dynamics},
		{"Physics", rep.PhysicsTime},
		{"Total", rep.Total},
	} {
		tbl.AddRow(c.name, stats.Seconds(c.v), stats.Percent(c.v/rep.Total))
	}
	fmt.Print(tbl.Render())
	fmt.Printf("\nPhysics load imbalance: %s   Filter load imbalance: %s\n",
		stats.Percent(core.Imbalance(rep.PhysicsLoads)),
		stats.Percent(core.Imbalance(rep.FilterLoads)))
	fmt.Printf("Communication: %.0f messages/step, %.2f MB/step, max wait share %s\n",
		rep.MessagesPerStep, rep.BytesPerStep/1e6, stats.Percent(rep.MaxWaitShare))
	fmt.Printf("Stability: max |h| = %.0f m (resting depth %d m)\n",
		rep.MaxAbsH, dynamics.MeanDepth)

	if net := rep.Network; net != nil {
		fmt.Printf("\nInterconnect: %s, placement %s\n",
			net.Topology().Name(), net.Placement().Name())
		crep, err := net.Contend(topology.TransfersFromEvents(rep.Raw.Events))
		if err != nil {
			fatal(err)
		}
		fmt.Print(trace.LinkUtilizationTable(crep, rep.Raw.MaxClock(), 10))
	}

	if *commMatrixFile != "" {
		cm := trace.NewCommMatrix(rep.Raw)
		if *commMatrixFile == "-" {
			fmt.Println()
			fmt.Print(diag.CommMatrixTable(cm, 10))
		} else {
			raw, err := cm.JSON()
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*commMatrixFile, raw, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("\nwrote communication matrix to %s\n", *commMatrixFile)
		}
	}

	if *saveState != "" {
		writeCheckpoint(*saveState, rep.FinalState)
		fmt.Printf("\nwrote checkpoint to %s (step %d)\n", *saveState, rep.FinalState.Step)
	}

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		if err := trace.ExportChromeTrace(f, rep.Raw); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote Chrome trace timeline to %s (open in Perfetto or chrome://tracing)\n",
			*traceFile)
	}

	if *profile {
		fmt.Println("\nMachine-wide summary (whole run, including warmup):")
		fmt.Print(trace.Summary(rep.Raw))
		fmt.Println("\nPer-rank utilization (virtual seconds):")
		fmt.Print(trace.UtilizationTable(rep.Raw, sim.Physics, 12))
		fmt.Println("\nUtilization shares (not chronological):")
		fmt.Print(trace.Gantt(rep.Raw, 72))
	}
}

// writeCheckpoint writes the checkpoint -load-state restores: one history
// frame.
func writeCheckpoint(path string, file *history.File) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := history.WriteFrame(f, file); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "agcm:", err)
	os.Exit(2)
}
