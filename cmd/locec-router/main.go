// Command locec-router fronts a sharded locec-serve fleet: it routes
// each request to the shard owning its data via the same consistent-hash
// ring the cutter (`locec shard`) and the shards compute, scatter-gathers
// classification batches, and degrades gracefully — retries with capped
// jittered backoff, hedged requests past the observed p95, per-shard
// circuit breakers fed by /readyz probes, and explicit partial responses
// (`"partial": true` + `missing_shards`) when a shard is dark.
//
// Usage:
//
//	locec shard -in model.locec -n 4
//	locec-serve -addr :8081 -shard 0/4 -artifact model.locec   # ×4
//	locec-router -addr :8080 -shards http://localhost:8081,http://localhost:8082,http://localhost:8083,http://localhost:8084
//
// Endpoints mirror locec-serve's read surface: GET /v1/edge,
// POST /v1/classify, GET /v1/communities/{node}, POST /v1/mutations
// (fanned to touched shards, aggregated honestly), GET /v1/stats
// (per-shard health + retry/hedge/breaker counters), /healthz, /readyz.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"locec/internal/router"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		shards     = flag.String("shards", "", "comma-separated shard base URLs http://host:port[/prefix], in shard order (index i = shard i of the cut)")
		attempt    = flag.Duration("attempt-timeout", 2*time.Second, "per-RPC attempt timeout")
		reqTimeout = flag.Duration("request-timeout", 10*time.Second, "end-to-end per-request timeout")
		retries    = flag.Int("retries", 2, "max retries for idempotent reads")
		hedgeMax   = flag.Duration("hedge-max", 50*time.Millisecond, "hedge delay ceiling (floor 1ms, or the ceiling when that is lower; actual delay tracks each shard's p95)")
		brkThresh  = flag.Int("breaker-threshold", 5, "consecutive failures that open a shard's circuit")
		brkCool    = flag.Duration("breaker-cooldown", 5*time.Second, "open-circuit cooldown before a half-open trial")
		probeEvery = flag.Duration("probe-interval", time.Second, "/readyz probe interval (0 disables probing)")
	)
	flag.Parse()

	log := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	if *shards == "" {
		fatal(fmt.Errorf("-shards is required (comma-separated base URLs)"))
	}
	urls := strings.Split(*shards, ",")
	for i, u := range urls {
		urls[i] = strings.TrimSpace(u)
		if urls[i] == "" {
			fatal(fmt.Errorf("-shards entry %d is empty", i))
		}
	}

	r, err := router.New(router.Config{
		Shards:           len(urls),
		Transport:        &router.HTTPTransport{BaseURLs: urls},
		AttemptTimeout:   *attempt,
		RequestTimeout:   *reqTimeout,
		MaxRetries:       *retries,
		HedgeMax:         *hedgeMax,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCool,
		Logger:           log,
	})
	if err != nil {
		fatal(err)
	}
	if *probeEvery > 0 {
		ready := r.ProbeOnce(context.Background())
		log.Info("initial probe", "ready", ready, "shards", len(urls))
		stop := r.StartProber(*probeEvery)
		defer stop()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           r.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	errCh := make(chan error, 1)
	go func() {
		log.Info("routing", "addr", *addr, "shards", len(urls))
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
		log.Info("shutting down, draining in-flight requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fatal(err)
		}
		log.Info("bye")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "locec-router:", err)
	os.Exit(1)
}
