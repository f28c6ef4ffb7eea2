// Command agcmlint statically enforces the simulator's determinism,
// communication-protocol, and concurrency-correctness invariants (see
// internal/analysis for the analyzers: nondeterm, commtag, collective,
// lockorder, goleak, ctxflow, wgmisuse).
//
// Standalone mode loads packages itself:
//
//	agcmlint ./...
//	agcmlint -json ./internal/comm ./internal/sim
//
// It also speaks the `go vet -vettool` protocol (-V=full, -flags, and
// single-unit *.cfg analysis), so the same binary runs under the build
// system's caching:
//
//	go build -o /tmp/agcmlint ./cmd/agcmlint
//	go vet -vettool=/tmp/agcmlint ./...
//
// Exit status: 0 clean, 1 diagnostics reported, 2 operational error.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"agcm/internal/analysis"
	"agcm/internal/analysis/load"
)

func main() {
	// The vettool handshake flags must be handled before flag parsing
	// rewrites usage: cmd/go invokes `agcmlint -V=full` for build caching
	// and `agcmlint -flags` for flag discovery.
	for _, arg := range os.Args[1:] {
		switch arg {
		case "-V=full", "--V=full":
			printVersion()
			return
		case "-flags", "--flags":
			printFlags()
			return
		}
	}

	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON (file, line, col, analyzer, message)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: agcmlint [-json] [packages]\n   or: go vet -vettool=$(which agcmlint) [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()

	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		runVetUnit(args[0], *jsonOut)
		return
	}
	runStandalone(args, *jsonOut)
}

// jsonDiagnostic is the machine-readable diagnostic record of -json mode.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// runStandalone loads packages with the go list based loader and reports.
func runStandalone(patterns []string, jsonOut bool) {
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

// printVersion answers `-V=full`.  cmd/go requires `<name> version <ver>`
// and uses the whole line as the tool's build-cache ID, so the line embeds a
// content hash of the binary: rebuilding agcmlint invalidates cached vet
// results.
func printVersion() {
	h := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			sum := sha256.New()
			if _, err := io.Copy(sum, f); err == nil {
				h = fmt.Sprintf("%x", sum.Sum(nil))[:16]
			}
			f.Close()
		}
	}
	fmt.Printf("agcmlint version 1.0.0-%s\n", h)
}

// vetFlagDef mirrors the JSON shape `go vet` expects from `tool -flags`.
type vetFlagDef struct {
	Name  string `json:"Name"`
	Bool  bool   `json:"Bool"`
	Usage string `json:"Usage"`
}

// printFlags answers `-flags`: the tool flags go vet may forward.
func printFlags() {
	defs := []vetFlagDef{{Name: "json", Bool: true, Usage: "emit diagnostics as JSON"}}
	json.NewEncoder(os.Stdout).Encode(defs)
}
