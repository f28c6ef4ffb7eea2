package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// The tests drive agcmgw as a process: the test binary re-executes itself
// as the daemon with the newline-separated arguments in AGCMGW_TEST_ARGS.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("AGCMGW_TEST_ARGS"); ok {
		os.Args = append([]string{"agcmgw"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startGateway starts agcmgw with args, its stderr collected in the returned
// builder.
func startGateway(t *testing.T, args ...string) (*exec.Cmd, *strings.Builder) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "AGCMGW_TEST_ARGS="+strings.Join(args, "\n"))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd, &stderr
}

// TestUsageErrorsExitNonZero: a missing -backends and a malformed backend
// URL each exit non-zero, and the message says what was wrong.
func TestUsageErrorsExitNonZero(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-events", "none"}, "agcmgw: -backends is required"},
		{[]string{"-events", "none", "-backends", "http//no-scheme:8080"}, `bad backend URL "http//no-scheme:8080"`},
	} {
		cmd, stderr := startGateway(t, c.args...)
		err := cmd.Wait()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
			t.Errorf("agcmgw %s: exit %v, want a non-zero status", strings.Join(c.args, " "), err)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("agcmgw %s: stderr %q does not contain %q", strings.Join(c.args, " "), stderr.String(), c.want)
		}
	}
}

// TestServesReadyzAndDrainsOnSIGTERM: over a live backend the gateway
// probes it, answers /readyz with 200, and exits 0 on SIGTERM.
func TestServesReadyzAndDrainsOnSIGTERM(t *testing.T) {
	var probes atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			probes.Add(1)
		}
	}))
	defer backend.Close()

	// A port that was free a moment ago: the daemon prints its -addr, not
	// the port it bound.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd, stderr := startGateway(t, "-addr", addr, "-backends", backend.URL,
		"-probe-interval", "20ms", "-events", "none")
	defer cmd.Process.Kill()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && probes.Load() > 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no ready gateway on %s after 10s (probes %d, last error %v); stderr:\n%s",
				addr, probes.Load(), err, stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "shutting down") {
		t.Errorf("stderr does not report the shutdown:\n%s", stderr.String())
	}
}
