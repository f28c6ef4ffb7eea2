package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"strings"
	"testing"
)

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
	bin := buildLint(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = repoRoot(t)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("agcmlint ./... reported findings or failed: %v\n%s", err, stderr.String())
	}
}

// TestJSONViolation checks standalone -json mode end to end: a violating
// module yields exit status 1 and one parseable record carrying the nondeterm
// analyzer, its message and a physical location.
func TestJSONViolation(t *testing.T) {
	bin := buildLint(t)
	dir := writeProbeModule(t, `package sim

func Sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}
`)
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
