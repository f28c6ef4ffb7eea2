// Command agcmlint statically enforces the simulator's determinism,
// communication-protocol, and concurrency-correctness invariants (see
// internal/analysis for the analyzers: nondeterm, commtag, collective,
// lockorder, goleak, ctxflow, wgmisuse).
//
// It loads the packages itself (see internal/analysis/load):
//
//	agcmlint ./...
//	agcmlint -json ./internal/comm ./internal/sim
//
// Exit status: 0 clean, 1 diagnostics reported, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"agcm/internal/analysis"
	"agcm/internal/analysis/load"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON (file, line, col, analyzer, message)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: agcmlint [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	run(flag.Args(), *jsonOut)
}

// jsonDiagnostic is the machine-readable diagnostic record of -json mode.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// run loads packages with the go list based loader and reports.
func run(patterns []string, jsonOut bool) {
	pkgs, err := load.Packages("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "agcmlint: %v\n", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(pkgs, analysis.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "agcmlint: %v\n", err)
		os.Exit(2)
	}
	if len(pkgs) == 0 {
		fmt.Fprintln(os.Stderr, "agcmlint: no packages matched")
		os.Exit(2)
	}
	fset := pkgs[0].Fset
	if jsonOut {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			p := d.Position(fset)
			out = append(out, jsonDiagnostic{
				File: p.Filename, Line: p.Line, Col: p.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "agcmlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", d.Position(fset), d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
