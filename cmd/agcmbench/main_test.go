package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"agcm/internal/experiments"
	"agcm/internal/roofline"
)

// bench runs the command in-process and returns its exit status and streams.
func bench(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListMatchesExperimentIDs(t *testing.T) {
	code, out, _ := bench("-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	if want := strings.Join(experiments.IDs(), "\n") + "\n"; out != want {
		t.Fatalf("-list printed\n%s\nwant\n%s", out, want)
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of stderr
	}{
		{[]string{"-experiment", "table99"}, "table99"},
		{[]string{"-format", "xml", "-list"}, `unknown format "xml"`},
		{[]string{"-steps", "0"}, "-steps 0 out of range"},
		{[]string{"-steps", "-3", "-experiment", "advection"}, "-steps -3 out of range"},
		// Retired with the JSON artifacts they wrote: the flag package itself
		// rejects them.
		{[]string{"-bench9-json", "x"}, "flag provided but not defined: -bench9-json"},
		{[]string{"-calib-out", "x"}, "flag provided but not defined: -calib-out"},
	} {
		code, out, errs := bench(tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(errs, tc.want) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, errs, tc.want)
		}
		if out != "" {
			t.Errorf("%v: a usage error wrote to stdout: %q", tc.args, out)
		}
	}
}

func TestCSVFormatParses(t *testing.T) {
	code, out, errs := bench("-experiment", "advection", "-format", "csv")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	title, body, ok := strings.Cut(out, "\n")
	if !ok || !strings.HasPrefix(title, "# ") {
		t.Fatalf("csv output does not open with a '# title' line: %q", out)
	}
	rows, err := csv.NewReader(strings.NewReader(body)).ReadAll() // also checks equal field counts
	if err != nil {
		t.Fatalf("csv does not parse: %v\n%s", err, body)
	}
	if len(rows) < 2 {
		t.Fatalf("csv has %d rows, want a header and data", len(rows))
	}
}

// TestCommittedResultsCurrent is the tier-1 staleness guard for RESULTS.txt:
// every experiment fast enough to rerun here must print exactly the section
// committed there.  CI diffs the whole file (`-experiment all`).
func TestCommittedResultsCurrent(t *testing.T) {
	committed, err := os.ReadFile("../../RESULTS.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"scheduling", "blockarray", "advection",
		"table1", "table2", "table3", "crash-recovery"} {
		code, out, errs := bench("-experiment", id)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", id, code, errs)
		}
		if !bytes.Contains(committed, []byte(out)) {
			t.Errorf("RESULTS.txt does not carry the current %s output; regenerate with: go run ./cmd/agcmbench -experiment all > RESULTS.txt\n%s", id, out)
		}
	}
}

func TestCalibrateWritesLoadableCalib(t *testing.T) {
	if testing.Short() {
		t.Skip("times real runs on the host (~5 s)")
	}
	path := filepath.Join(t.TempDir(), "host.json")
	code, out, errs := bench("-calibrate", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	for _, want := range []string{"Host roofline calibration", "144x90x9/4x4/fft-lb", "MAPE", "Spearman", "wrote " + path} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	calib, err := roofline.ParseCalib(raw)
	if err != nil {
		t.Fatalf("written calibration does not parse: %v\n%s", err, raw)
	}
	canonical, err := calib.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(canonical)+"\n" {
		t.Errorf("written calibration is not canonical:\n got %s\nwant %s", raw, canonical)
	}
	if _, err := roofline.NewMachine(calib); err != nil {
		t.Errorf("written calibration cannot price jobs: %v", err)
	}
}
