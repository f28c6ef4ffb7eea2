package chaostest

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"agcm/internal/gateway"
)

// repoRoot walks up from the package directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above package directory")
		}
		dir = parent
	}
}

// freePort grabs an ephemeral port and releases it for the daemon to bind.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// agcmdProc is one real agcmd child process.
type agcmdProc struct {
	cmd  *exec.Cmd
	url  string
	args []string
	bin  string
}

func startAgcmd(t *testing.T, bin string, port int, id string, extra ...string) *agcmdProc {
	t.Helper()
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-workers", "2", "-queue", "64", "-cache", "256",
		"-backend-id", id,
	}
	args = append(args, extra...)
	p := &agcmdProc{
		url:  fmt.Sprintf("http://127.0.0.1:%d", port),
		args: args,
		bin:  bin,
	}
	p.start(t)
	return p
}

func (p *agcmdProc) start(t *testing.T) {
	t.Helper()
	p.cmd = exec.Command(p.bin, p.args...)
	p.cmd.Stdout = io.Discard
	p.cmd.Stderr = io.Discard
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
}

func (p *agcmdProc) awaitReady(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(p.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("agcmd at %s never became ready", p.url)
}

func (p *agcmdProc) kill() {
	if p.cmd != nil && p.cmd.Process != nil {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}
}

// TestGatewaySurvivesBackendKill is the cluster-grade proof: three real
// agcmd processes behind the gateway, a concurrent storm of requests, one
// backend SIGKILLed mid-load and later restarted.  Every response the
// gateway hands a client must be 200 (byte-exact against the fault-free
// reference) or 429 — the crash must be absorbed by retries, breakers, and
// probing, and the victim must be readmitted after restart.
func TestGatewaySurvivesBackendKill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real agcmd processes")
	}
	root := repoRoot(t)
	bin := filepath.Join(t.TempDir(), "agcmd")
	build := exec.Command("go", "build", "-o", bin, "agcm/cmd/agcmd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building agcmd: %v\n%s", err, out)
	}

	pool := bodyPool()
	refs := referenceBodies(t, pool)

	procs := make([]*agcmdProc, 3)
	for i := range procs {
		procs[i] = startAgcmd(t, bin, freePort(t), fmt.Sprintf("proc%d", i))
		defer procs[i].kill()
		procs[i].awaitReady(t)
	}

	urls := make([]string, len(procs))
	for i, p := range procs {
		urls[i] = p.url
	}
	g, err := gateway.New(gateway.Options{
		Backends:       urls,
		Policy:         "key-affinity",
		ProbeInterval:  40 * time.Millisecond,
		FailThreshold:  2,
		OpenFor:        300 * time.Millisecond,
		RetryMax:       4,
		RetryRatio:     0.5,
		RetryBurst:     60,
		BackoffBase:    2 * time.Millisecond,
		BackoffCap:     30 * time.Millisecond,
		AttemptTimeout: 10 * time.Second,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	const (
		goroutines = 6
		perG       = 40
		total      = goroutines * perG
	)
	type result struct {
		body   string
		status int
		got    []byte
		err    error
	}
	results := make([]result, total)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := 0; i < perG; i++ {
				body := pool[(gi*17+i)%len(pool)]
				r := result{body: body}
				resp, err := client.Post(gw.URL+"/v1/run", "application/json", strings.NewReader(body))
				if err != nil {
					r.err = err
				} else {
					r.status = resp.StatusCode
					r.got, r.err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				results[gi*perG+i] = r
				time.Sleep(2 * time.Millisecond) // stretch the storm across the kill window
			}
		}(gi)
	}

	// Mid-storm: SIGKILL one backend, let the cluster absorb it, restart.
	time.Sleep(150 * time.Millisecond)
	victim := procs[1]
	victim.kill()
	time.Sleep(400 * time.Millisecond)
	victim.start(t)
	victim.awaitReady(t)
	wg.Wait()

	ok200, saturated := 0, 0
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d: client-level error escaped the gateway: %v", i, r.err)
		}
		switch r.status {
		case 200:
			ok200++
			if string(r.got) != string(refs[r.body]) {
				t.Fatalf("request %d: accepted body not byte-exact after backend kill\ngot  %q\nwant %q",
					i, r.got, refs[r.body])
			}
		case 429:
			saturated++
		default:
			t.Fatalf("request %d: status %d (body %q) — a backend crash must never surface as an error", i, r.status, r.got)
		}
	}
	if ok200 == 0 {
		t.Fatal("no request succeeded")
	}
	t.Logf("storm: %d ok, %d saturated, retries=%d", ok200, saturated, g.Metrics().Retries.Get())

	// The crash must have been visible to the resilience machinery.
	if n := g.Metrics().BreakerTransitions.Total(); n == 0 {
		t.Fatal("breaker never transitioned despite a SIGKILLed backend")
	}

	// After readmission the revived backend serves again: drive requests
	// until it answers one (its ready bit and breaker must recover).  The
	// backends listen on random ports, so under key-affinity the six pool
	// keys alone miss one given backend about one run in eleven; extra step
	// counts widen the key set until some key is certain to rank it first.
	probes := append([]string(nil), pool...)
	for steps := 3; steps <= 20; steps++ {
		probes = append(probes, fmt.Sprintf(`{"config":{"nlon":36,"nlat":24,"nlayers":3,`+
			`"machine":"paragon","mesh_py":1,"mesh_px":1,"filter":"fft"},"steps":%d}`, steps))
	}
	deadline := time.Now().Add(10 * time.Second)
	recovered := false
	for !recovered && time.Now().Before(deadline) {
		for _, body := range probes {
			resp, err := http.Post(gw.URL+"/v1/run", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			backend := resp.Header.Get("X-Agcmd-Backend")
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if want, ok := refs[body]; ok && resp.StatusCode == 200 && string(raw) != string(want) {
				t.Fatalf("post-restart body not byte-exact for %q", body)
			}
			if backend == "proc1" {
				recovered = true
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("restarted backend was never readmitted into rotation")
	}
}

// scrapeCounter fetches the backend's /metrics and sums every sample of the
// named counter family (across labels).
func scrapeCounter(t *testing.T, url, family string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, family) || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err != nil {
			t.Fatalf("bad metrics line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestDiskTierSurvivesSIGKILL is the durability drill for the disk cache
// tier: a real agcmd with -cache-dir serves a request mix through the
// gateway, is SIGKILLed (no drain, no flush window), and restarts over the
// same directory.  Every body the gateway observed before the kill must
// come back byte-identical from the disk tier — with zero simulation
// re-runs, because the daemon persists each result before responding.
func TestDiskTierSurvivesSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real agcmd processes")
	}
	root := repoRoot(t)
	bin := filepath.Join(t.TempDir(), "agcmd")
	build := exec.Command("go", "build", "-o", bin, "agcm/cmd/agcmd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building agcmd: %v\n%s", err, out)
	}

	cacheDir := t.TempDir()
	port := freePort(t)
	proc := startAgcmd(t, bin, port, "disk0", "-cache-dir", cacheDir)
	defer proc.kill()
	proc.awaitReady(t)

	g, err := gateway.New(gateway.Options{
		Backends:       []string{proc.url},
		Policy:         "round-robin",
		ProbeInterval:  40 * time.Millisecond,
		FailThreshold:  2,
		OpenFor:        200 * time.Millisecond,
		RetryMax:       4,
		RetryRatio:     1,
		RetryBurst:     60,
		BackoffBase:    2 * time.Millisecond,
		BackoffCap:     30 * time.Millisecond,
		AttemptTimeout: 10 * time.Second,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	// Round 1: populate both tiers through the gateway and record every body.
	pool := bodyPool()
	first := make(map[string][]byte, len(pool))
	for _, body := range pool {
		resp, err := http.Post(gw.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("seed request %q: status %d: %s", body, resp.StatusCode, raw)
		}
		first[body] = raw
	}

	// SIGKILL: no drain, no graceful anything.  The durability contract is
	// that every *responded* result was already on disk before its 200.
	proc.kill()
	proc.start(t)
	proc.awaitReady(t)

	// Round 2: the same mix must replay byte-identical from the disk tier.
	// The gateway may need a probe cycle to readmit the backend, so retry
	// briefly on non-200s.
	for _, body := range pool {
		var raw []byte
		var cacheHdr string
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Post(gw.URL+"/v1/run", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode == 200 {
				cacheHdr = resp.Header.Get("X-Agcmd-Cache")
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replay %q: status %d never recovered: %s", body, resp.StatusCode, raw)
			}
			time.Sleep(50 * time.Millisecond)
		}
		if string(raw) != string(first[body]) {
			t.Fatalf("replay %q not byte-identical after SIGKILL restart\ngot  %q\nwant %q",
				body, raw, first[body])
		}
		if cacheHdr != "disk-hit" && cacheHdr != "hit" {
			t.Fatalf("replay %q served with disposition %q, want disk-hit (or hit after promotion)", body, cacheHdr)
		}
	}

	// Zero re-runs: the restarted process replayed everything from disk.
	if runs := scrapeCounter(t, proc.url, "agcmd_runs_total"); runs != 0 {
		t.Fatalf("restarted daemon re-ran %g simulations; the disk tier should have served them all", runs)
	}
	if diskHits := scrapeCounter(t, proc.url, `agcmd_requests_total{result="disk_hit"}`); diskHits != float64(len(pool)) {
		t.Fatalf("disk-hit count %g, want %d", diskHits, len(pool))
	}
}
