package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"agcm/internal/history"
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
