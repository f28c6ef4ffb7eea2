// Command agcmgw is the fault-tolerant gateway daemon: an HTTP front end
// over internal/gateway that routes simulation requests across N agcmd
// backends with health probing, per-backend circuit breakers, budgeted
// retries, hedging for interactive jobs, and degraded serves from any
// backend's result cache.
//
//	agcmgw -addr :8090 -backends http://h1:8080,http://h2:8080 -policy key-affinity
//
// Endpoints:
//
//	POST /v1/run   same body as agcmd; routed, retried, hedged
//	GET  /healthz  liveness: "ok" while the process is up
//	GET  /readyz   readiness: 200 while at least one backend is routable
//	GET  /metrics  Prometheus text format (agcmgw_* families)
//
// Structured JSON event lines — breaker (a state transition), eject,
// readmit, hedge, degraded (a cache-peek serve) and retry_budget_exhausted
// — go to stderr by default; -events redirects them to a file or discards
// them with "none".
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"agcm/internal/gateway"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	backends := flag.String("backends", "", "comma-separated agcmd base URLs (required)")
	policy := flag.String("policy", "key-affinity", "routing policy: "+strings.Join(gateway.PolicyNames(), ", "))
	probeInterval := flag.Duration("probe-interval", 250*time.Millisecond, "active /readyz probe period")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "per-probe budget")
	failThreshold := flag.Int("fail-threshold", 3, "consecutive failures that open a backend's circuit breaker")
	openFor := flag.Duration("open-for", 2*time.Second, "how long an open breaker ejects its backend before a half-open probe")
	retryMax := flag.Int("retry-max", 3, "retries per request")
	retryRatio := flag.Float64("retry-ratio", 0.2, "retry-budget tokens deposited per accepted request")
	retryBurst := flag.Float64("retry-burst", 10, "retry-budget token-bucket cap")
	backoffBase := flag.Duration("backoff-base", 25*time.Millisecond, "base retry backoff")
	backoffCap := flag.Duration("backoff-cap", time.Second, "retry backoff ceiling")
	attemptTimeout := flag.Duration("attempt-timeout", 60*time.Second, "per-attempt budget")
	hedgeDelay := flag.Duration("hedge-delay", 0, "hedge interactive requests after this delay until a latency p95 exists (0 = hedging off)")
	seed := flag.Int64("seed", 1, "deterministic backoff-jitter seed")
	events := flag.String("events", "stderr", `event-log destination: "stderr", "none", or a file path`)
	flag.Parse()

	if *backends == "" {
		log.Fatal("agcmgw: -backends is required")
	}
	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, b)
		}
	}

	var eventsW io.Writer
	switch *events {
	case "stderr":
		eventsW = os.Stderr
	case "none", "":
	default:
		f, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("agcmgw: opening event log: %v", err)
		}
		defer f.Close()
		eventsW = f
	}

	g, err := gateway.New(gateway.Options{
		Backends:       urls,
		Policy:         *policy,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		FailThreshold:  *failThreshold,
		OpenFor:        *openFor,
		RetryMax:       *retryMax,
		RetryRatio:     *retryRatio,
		RetryBurst:     *retryBurst,
		BackoffBase:    *backoffBase,
		BackoffCap:     *backoffCap,
		AttemptTimeout: *attemptTimeout,
		HedgeDelay:     *hedgeDelay,
		Seed:           *seed,
		Events:         eventsW,
	})
	if err != nil {
		log.Fatalf("agcmgw: %v", err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: g.Handler()}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	log.Printf("agcmgw: serving on %s (policy=%s backends=%d retry-max=%d hedge-delay=%s)",
		*addr, *policy, len(urls), *retryMax, *hedgeDelay)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)

	select {
	case sig := <-sigCh:
		log.Printf("agcmgw: received %v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("agcmgw: http shutdown: %v", err)
		}
		g.Close()
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("agcmgw: %v", err)
		}
	}
}
