package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"strings"
	"testing"

	"agcm/internal/analysis"
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

// TestSarifViolation checks the -sarif mode end to end: a violating module
// yields exit status 1 and a parseable SARIF 2.1.0 log whose driver lists
// every registered analyzer as a rule and whose single result carries the
// nondeterm ruleId with a physical location.
func TestSarifViolation(t *testing.T) {
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
	cmd := exec.Command(bin, "-sarif", "./...")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 1 {
		t.Fatalf("agcmlint -sarif on a violating module: err=%v (want exit status 1)\n%s", err, stderr.String())
	}

	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("-sarif output is not JSON: %v\n%s", err, stdout.String())
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("SARIF version %q schema %q: want 2.1.0", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("SARIF has %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "agcmlint" {
		t.Errorf("driver name %q, want agcmlint", run.Tool.Driver.Name)
	}
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has an empty shortDescription", r.ID)
		}
	}
	for _, a := range analysis.All() {
		if !ruleIDs[a.Name] {
			t.Errorf("driver rules missing analyzer %s", a.Name)
		}
	}
	if len(run.Results) == 0 {
		t.Fatal("SARIF run has no results for a violating module")
	}
	res := run.Results[0]
	if res.RuleID != "nondeterm" {
		t.Errorf("result ruleId %q, want nondeterm", res.RuleID)
	}
	if !strings.Contains(res.Message.Text, "range over map") {
		t.Errorf("result message %q lacks the nondeterm diagnostic", res.Message.Text)
	}
	if len(res.Locations) != 1 {
		t.Fatalf("result has %d locations, want 1", len(res.Locations))
	}
	loc := res.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/sim/probe.go" {
		t.Errorf("artifact uri %q, want repo-relative internal/sim/probe.go", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine == 0 || loc.Region.StartColumn == 0 {
		t.Errorf("region %+v lacks a line/column", loc.Region)
	}
}

// TestSarifCleanRepo runs -sarif over the repository: still exit 0, and the
// log must parse with zero results — the shape CI uploads on every build.
func TestSarifCleanRepo(t *testing.T) {
	bin := buildLint(t)
	cmd := exec.Command(bin, "-sarif", "./...")
	cmd.Dir = repoRoot(t)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("agcmlint -sarif ./... : %v\n%s", err, stderr.String())
	}
	var log struct {
		Runs []struct {
			Results []json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("-sarif output is not JSON: %v", err)
	}
	if len(log.Runs) != 1 || len(log.Runs[0].Results) != 0 {
		t.Fatalf("clean repo SARIF: want 1 run with 0 results, got %+v", log.Runs)
	}
}

// TestJSONAndSarifMutuallyExclusive pins the operational-error exit.
func TestJSONAndSarifMutuallyExclusive(t *testing.T) {
	bin := buildLint(t)
	err := exec.Command(bin, "-json", "-sarif", "./...").Run()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 2 {
		t.Fatalf("-json -sarif together: err=%v, want exit status 2", err)
	}
}
