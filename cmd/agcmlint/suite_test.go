package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildLint compiles the agcmlint binary once per test.
func buildLint(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping agcmlint integration in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "agcmlint")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// writeProbeModule lays out a throwaway module whose package path places it
// inside the nondeterm scope (internal/sim), with src as internal/sim/probe.go.
// It returns the module root and the package directory.
func writeProbeModule(t *testing.T, src string) (root, pkgDir string) {
	t.Helper()
	root = t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module lintprobe\n\ngo 1.22\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	pkgDir = filepath.Join(root, "internal", "sim")
	if err := os.MkdirAll(pkgDir, 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkgDir, "probe.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	return root, pkgDir
}

// violatingSum ranges over a map in the nondeterm scope: one finding.
const violatingSum = `package sim

func Sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}
`

// requireClean runs agcmlint ./... in dir and requires exit status 0.
func requireClean(t *testing.T, bin, dir string) {
	t.Helper()
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("agcmlint ./... in %s: %v\n%s", dir, err, stderr.String())
	}
}

// repoRoot resolves the module root so suite-wide runs execute from the same
// directory CI uses.
func repoRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	return strings.TrimSpace(string(out))
}

// TestStandaloneSuiteCleanOverRepo runs the full seven-analyzer suite over
// every package in the repository and requires a clean exit.  This is the
// PR-hygiene gate: a new finding must be either fixed or suppressed with a
// reasoned //lint:allow before it lands.
func TestStandaloneSuiteCleanOverRepo(t *testing.T) {
	requireClean(t, buildLint(t), repoRoot(t))
}

// TestJSONViolation checks standalone -json mode end to end: a violating
// module yields exit status 1 and one parseable record carrying the nondeterm
// analyzer, its message and a physical location.
func TestJSONViolation(t *testing.T) {
	bin := buildLint(t)
	dir, _ := writeProbeModule(t, violatingSum)
	cmd := exec.Command(bin, "-json", "./...")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 1 {
		t.Fatalf("agcmlint -json on a violating module: err=%v (want exit status 1)\n%s", err, stderr.String())
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not a diagnostic list: %v\n%s", err, stdout.String())
	}
	if len(diags) != 1 {
		t.Fatalf("%d diagnostics, want 1: %+v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "nondeterm" || !strings.Contains(d.Message, "range over map") {
		t.Errorf("diagnostic [%s] %q, want the nondeterm range-over-map finding", d.Analyzer, d.Message)
	}
	if !strings.HasSuffix(d.File, "internal/sim/probe.go") || d.Line == 0 || d.Col == 0 {
		t.Errorf("location %s:%d:%d, want a line and column in internal/sim/probe.go", d.File, d.Line, d.Col)
	}
}

// TestAllowSuppresses checks the //lint:allow path end to end: the same map
// range as TestJSONViolation, annotated with a reason, exits clean.
func TestAllowSuppresses(t *testing.T) {
	bin := buildLint(t)
	dir, _ := writeProbeModule(t, `package sim

// Sum is order-insensitive only up to float rounding, but this probe only
// checks that the annotation suppresses the diagnostic.
func Sum(m map[string]float64) float64 {
	var s float64
	//lint:allow nondeterm probe fixture exercising the suppression path
	for _, v := range m {
		s += v
	}
	return s
}
`)
	requireClean(t, bin, dir)
}

// TestTestFilesExempt checks that a violation in a _test.go file is not
// reported: the loader reads only a package's GoFiles.
func TestTestFilesExempt(t *testing.T) {
	bin := buildLint(t)
	dir, pkgDir := writeProbeModule(t, "package sim\n")
	if err := os.WriteFile(filepath.Join(pkgDir, "probe_test.go"), []byte(violatingSum), 0o666); err != nil {
		t.Fatal(err)
	}
	requireClean(t, bin, dir)
}
