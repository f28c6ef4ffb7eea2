package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"agcm/internal/core"
	"agcm/internal/grid"
	"agcm/internal/history"
	"agcm/internal/machine"
	"agcm/internal/physics"
	"agcm/internal/topology"
)

// TestLoadStateNamesRetiredFormat: -load-state on a checkpoint in the
// stream format that preceded frames exits 2 with history.Read's error —
// the format's name and how to convert the file — on stderr, not a generic
// bad-magic.  The test binary re-executes itself as the CLI.
func TestLoadStateNamesRetiredFormat(t *testing.T) {
	if path := os.Getenv("AGCM_TEST_LOAD_STATE"); path != "" {
		os.Args = []string{"agcm", "-load-state", path}
		main()
		return
	}
	path := filepath.Join(t.TempDir(), "old.ckpt")
	retired := []byte{'A', 'G', 'M', 'H', 0, 0, 0, 1, 0, 0, 0, 0}
	if err := os.WriteFile(path, retired, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestLoadStateNamesRetiredFormat$")
	cmd.Env = append(os.Environ(), "AGCM_TEST_LOAD_STATE="+path)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("exit: %v, want status 2", err)
	}
	_, readErr := history.Read(bytes.NewReader(retired))
	if readErr == nil || !strings.Contains(readErr.Error(), "AGMH") {
		t.Fatalf("history.Read error %v does not name the format", readErr)
	}
	want := "agcm: reading checkpoint: " + readErr.Error()
	if got := strings.TrimSpace(stderr.String()); got != want {
		t.Fatalf("stderr:\n got %s\nwant %s", got, want)
	}
}

// TestRoutedLinkTableReadsReplay runs README's routed command and checks its
// link table against the contention replay of the same run: at most ten
// rows, ordered by bytes with link-id ties, each row's msgs and kB the
// replay's, and the summary line the replay's totals.  The test binary
// re-executes itself as the CLI.
func TestRoutedLinkTableReadsReplay(t *testing.T) {
	args := []string{"-machine", "paragon", "-mesh", "4x8", "-filter", "fft",
		"-topology", "auto", "-placement", "snake"}
	if os.Getenv("AGCM_TEST_ROUTED") != "" {
		os.Args = append([]string{"agcm"}, args...)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRoutedLinkTableReadsReplay$")
	cmd.Env = append(os.Environ(), "AGCM_TEST_ROUTED=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("agcm %s: %v", strings.Join(args, " "), err)
	}

	// The same run in-process, with the flags' defaults spelled out.
	rep, err := core.Run(core.Config{
		Spec:          grid.TwoByTwoPointFive(9),
		Machine:       machine.Paragon(),
		MeshPy:        4,
		MeshPx:        8,
		Filter:        core.FilterFFT,
		PhysicsScheme: physics.None,
		PhysicsRounds: 2,
		EventLog:      true,
		Topology:      "auto",
		Placement:     "snake",
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	crep, err := rep.Network.Contend(topology.TransfersFromEvents(rep.Raw.Events))
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]topology.LinkContention, len(crep.Links))
	for _, l := range crep.Links {
		byName[l.Name] = l
	}

	lines := strings.Split(string(out), "\n")
	start := -1
	for i, line := range lines {
		if strings.HasPrefix(line, "link ") {
			start = i + 1
			break
		}
	}
	if start < 0 {
		t.Fatalf("no link table in output:\n%s", out)
	}
	var rows []topology.LinkContention
	i := start
	for ; i < len(lines) && !strings.HasPrefix(lines[i], "...") && !strings.HasPrefix(lines[i], "contention replay:"); i++ {
		f := strings.Fields(lines[i])
		if len(f) != 5 {
			t.Fatalf("row %q: want name, msgs, kB, busy%%, stall ms", lines[i])
		}
		l, ok := byName[f[0]]
		if !ok {
			t.Fatalf("row %q: no such link in the replay", lines[i])
		}
		if msgs, _ := strconv.Atoi(f[1]); msgs != l.Transfers {
			t.Errorf("row %s: %s msgs, replay %d", l.Name, f[1], l.Transfers)
		}
		if kb := fmt.Sprintf("%.1f", float64(l.Bytes)/1e3); f[2] != kb {
			t.Errorf("row %s: %s kB, replay %s", l.Name, f[2], kb)
		}
		rows = append(rows, l)
	}
	if len(rows) == 0 || len(rows) > 10 {
		t.Fatalf("%d link rows, want 1 to 10", len(rows))
	}
	for k := 1; k < len(rows); k++ {
		a, b := rows[k-1], rows[k]
		if a.Bytes < b.Bytes || (a.Bytes == b.Bytes && a.Link > b.Link) {
			t.Errorf("rows %d, %d out of order: %s (%d B, id %d) before %s (%d B, id %d)",
				k-1, k, a.Name, a.Bytes, a.Link, b.Name, b.Bytes, b.Link)
		}
	}

	want := fmt.Sprintf("contention replay: %d transfers, total stall %.3f ms, max %.3f ms",
		crep.Transfers, 1e3*crep.TotalStallSeconds, 1e3*crep.MaxStallSeconds)
	var got string
	for _, line := range lines[i:] {
		if strings.HasPrefix(line, "contention replay:") {
			got = line
			break
		}
	}
	if got != want {
		t.Fatalf("summary line\n got %q\nwant %q", got, want)
	}
}

// profileTraceSHA256 is the SHA-256 of the -tracefile JSON of the first run
// in TestProfileGolden.
const profileTraceSHA256 = "f04419a75a600d8c23e3559b336634590f29762490bc52d1d89ffaadab3ade01"

// TestProfileGolden pins the -profile views byte for byte — the summary,
// the utilization table and the Gantt bars — for a filtered run and for a
// run with no filter, where the filter and sync phases are absent; and the
// Chrome trace of the filtered run by its hash.  Regenerate a golden with
// the command in its case only when a change moves the output on purpose.
// The test binary re-executes itself as the CLI.
func TestProfileGolden(t *testing.T) {
	if args := os.Getenv("AGCM_TEST_PROFILE"); args != "" {
		os.Args = append([]string{"agcm"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0) // no test-framework output after the CLI's
	}
	agcm := func(args ...string) []byte {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-test.run=^TestProfileGolden$")
		cmd.Env = append(os.Environ(), "AGCM_TEST_PROFILE="+strings.Join(args, "\n"))
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("agcm %s: %v", strings.Join(args, " "), err)
		}
		return out
	}
	for _, c := range []struct{ filter, golden string }{
		{"fft-lb", "profile.golden"},
		{"none", "profile-nofilter.golden"},
	} {
		// agcm -mesh 2x2 -filter <filter> -physics pairwise -steps 1 -profile > testdata/<golden>
		got := agcm("-mesh", "2x2", "-filter", c.filter, "-physics", "pairwise", "-steps", "1", "-profile")
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("-filter %s: output differs from testdata/%s:\n got:\n%s\nwant:\n%s", c.filter, c.golden, got, want)
		}
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	agcm("-mesh", "2x2", "-filter", "fft-lb", "-physics", "pairwise", "-steps", "1", "-profile", "-tracefile", path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != profileTraceSHA256 {
		t.Errorf("-tracefile JSON hashes to %x, want %s", sum, profileTraceSHA256)
	}
}

// TestRoutedOutputSHA256 pins the stdout of two routed runs byte for byte
// by its hash: one Paragon mesh under snake placement, one T3D torus under
// blocked placement.  Link-id ties order the link table, so a change that
// renumbers links moves these bytes even when every row's totals hold.
// The test binary re-executes itself as the CLI.
func TestRoutedOutputSHA256(t *testing.T) {
	if args := os.Getenv("AGCM_TEST_ROUTED_SHA"); args != "" {
		os.Args = append([]string{"agcm"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0) // no test-framework output after the CLI's
	}
	for _, c := range []struct {
		args []string
		sum  string
	}{
		{[]string{"-machine", "paragon", "-mesh", "4x8", "-filter", "fft", "-topology", "auto", "-placement", "snake"},
			"d329fe2cc72be79ffbec29d5e99b702a143cfdfb5e1676192b382f194d0df45d"},
		{[]string{"-machine", "t3d", "-mesh", "4x8", "-filter", "fft", "-topology", "torus:4x4x2", "-placement", "blocked"},
			"0211de01389603d375f0bb4e76c599b5f4d4fd24c2b3effe25d007599455bf89"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRoutedOutputSHA256$")
		cmd.Env = append(os.Environ(), "AGCM_TEST_ROUTED_SHA="+strings.Join(c.args, "\n"))
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("agcm %s: %v", strings.Join(c.args, " "), err)
		}
		if sum := sha256.Sum256(out); hex.EncodeToString(sum[:]) != c.sum {
			t.Errorf("agcm %s: stdout hashes to %x, want %s:\n%s", strings.Join(c.args, " "), sum, c.sum, out)
		}
	}
}
