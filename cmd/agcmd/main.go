// Command agcmd is the simulation-serving daemon: an HTTP front end over the
// virtual AGCM (internal/server) with a bounded worker pool, a deterministic
// result cache and Prometheus metrics.
//
//	agcmd -addr :8080 -workers 4 -queue 64 -cache 1024
//
// Endpoints:
//
//	POST /v1/run         {"config": {...canonical config...}, "steps": 2,
//	                      "slo": "interactive|batch", "timeout_ms": 5000}
//	GET  /v1/cache/{key} cached response body for a job key, or 404
//	GET  /healthz        liveness: "ok" while the process is up
//	GET  /readyz         readiness: "ready" while routable, 503 while draining
//	GET  /metrics        Prometheus text format
//
// On SIGTERM or SIGINT the daemon drains: it refuses new requests, finishes
// every accepted job (bounded by -drain-timeout), then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"agcm/internal/core"
	"agcm/internal/roofline"
	"agcm/internal/server"
)

// loadOracle builds the sjf cost oracle from a calibration file written by
// `agcmbench -calibrate <file>` on this host.  The empty path is
// nil: the server then prices with its built-in host calibration.
func loadOracle(path string) (core.CostOracle, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading calibration %q: %w", path, err)
	}
	calib, err := roofline.ParseCalib(data)
	if err != nil {
		return nil, err
	}
	return roofline.NewMachine(calib)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 4, "simulations in flight at once")
	queueCap := flag.Int("queue", 64, "admission queue capacity (beyond it requests are shed with 429)")
	cacheEntries := flag.Int("cache", 1024, "result-cache capacity in entries")
	jobTimeout := flag.Duration("job-timeout", 60*time.Second, "per-job execution budget")
	maxSteps := flag.Int("max-steps", 0, "reject requests asking for more measured steps (0 = no limit)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long to wait for accepted jobs on shutdown")
	backendID := flag.String("backend-id", "", "cluster member ID stamped on responses as X-Agcmd-Backend (empty = omit)")
	cacheDir := flag.String("cache-dir", "", "disk cache tier directory: finished runs persist here and survive restarts (empty = memory only)")
	cacheDiskBytes := flag.Int64("cache-disk-bytes", 0, "disk cache tier byte budget (0 = default 256 MiB)")
	scheduler := flag.String("scheduler", "fcfs", "admission scheduling policy: fcfs (arrival order), priority (interactive before batch) or sjf (cheapest predicted job first)")
	calib := flag.String("calib", "", "roofline calibration `file` that prices jobs for sjf, as written by agcmbench -calibrate (empty = the built-in host calibration)")
	flag.Parse()

	oracle, err := loadOracle(*calib)
	if err != nil {
		log.Fatalf("agcmd: %v", err)
	}

	s, err := server.New(server.Options{
		Workers:        *workers,
		QueueCapacity:  *queueCap,
		Scheduler:      *scheduler,
		CacheEntries:   *cacheEntries,
		JobTimeout:     *jobTimeout,
		MaxSteps:       *maxSteps,
		BackendID:      *backendID,
		CacheDir:       *cacheDir,
		CacheDiskBytes: *cacheDiskBytes,
		CostOracle:     oracle,
	})
	if err != nil {
		log.Fatalf("agcmd: %v", err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	log.Printf("agcmd: serving on %s (workers=%d queue=%d scheduler=%s cache=%d job-timeout=%s cache-dir=%q)",
		*addr, *workers, *queueCap, s.SchedulerName(), *cacheEntries, *jobTimeout, *cacheDir)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)

	select {
	case sig := <-sigCh:
		log.Printf("agcmd: received %v, draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		drainErr := s.Drain(ctx)
		// Shutdown after Drain: clients parked on in-flight jobs need the
		// listener alive until their responses are written.
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("agcmd: http shutdown: %v", err)
		}
		if drainErr != nil {
			log.Printf("agcmd: %v", drainErr)
			os.Exit(1)
		}
		log.Printf("agcmd: drained cleanly")
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("agcmd: %v", err)
		}
	}
}
