// Command locec-serve is the LoCEC classification service: it serves the
// friendships an offline three-phase run classified — an artifact written
// by `locec train -out` — over HTTP/JSON from an atomically swappable
// in-memory snapshot. It trains nothing.
//
// Usage:
//
//	locec train -out m.locec && locec-serve -addr :8080 -artifact m.locec
//
// Endpoints:
//
//	GET  /healthz                 pure liveness (200 even while booting)
//	GET  /readyz                  readiness: 503 until the snapshot is
//	                              loaded and WAL replay has completed
//	GET  /v1/edge?u=3&v=7         one friendship's predicted type
//	POST /v1/classify             batch lookup: {"edges":[{"u":3,"v":7},...]}
//	GET  /v1/communities/{node}   a node's ego-network communities
//	GET  /v1/stats                snapshot, phase times, cache, uptime
//	GET  /v1/artifact             download the live snapshot as a .locec file
//	POST /v1/reload               swap in another artifact: {"artifact":"path"}
//	POST /v1/mutations            mutate the live graph (add/remove/relabel
//	                              edges); only the dirty neighborhood is
//	                              recomputed and a new snapshot published
//
// The first snapshot is restored from -artifact, or from the WAL
// checkpoint when -wal names a directory that holds one; with neither the
// command exits 1. Restarts cost O(load).
// With -shard i/N the instance serves one slice of an N-way cut
// (`locec shard -n N`) behind locec-router: it loads only shard i's
// artifact and answers 421 for data other shards own. The port is bound
// before the snapshot loads (a boot gate answers /healthz 200 and
// everything else 503 until then), so fleet probes can tell "booting"
// from "dead".
// With -wal dir/ accepted mutations are appended to a durable write-ahead
// log before they are applied, boot replays the log atop the last
// checkpoint artifact (or -artifact before the first checkpoint), and a
// background checkpointer truncates the log — a kill -9 loses nothing that
// was acknowledged (see docs/OPERATIONS.md).
// SIGINT/SIGTERM drain in-flight requests before exit.
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
	"syscall"
	"time"

	artifactpkg "locec/internal/artifact"
	"locec/internal/serve"
	"locec/internal/wal"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		cache    = flag.Int("cache", 256, "batch-response LRU cache entries")
		artifact = flag.String("artifact", "", "the trained artifact to serve (locec train -out); needed unless -wal holds a checkpoint")
		shard    = flag.String("shard", "", "serve one slice of a sharded fleet as \"i/N\" (requires -artifact; loads <artifact stem>-i-of-N.locec)")

		walDir  = flag.String("wal", "", "directory for the durable mutation WAL (empty = mutations are in-memory only)")
		walSync = flag.String("wal-sync", "batch", "WAL fsync policy: always (per batch), batch (per burst, group commit) or none")
	)
	flag.Parse()

	log := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	cfg := serve.Config{
		CacheSize: *cache,
		Artifact:  *artifact,
		Logger:    log,
		WALDir:    *walDir,
	}
	mode, err := wal.ParseSyncMode(*walSync)
	if err != nil {
		fatal(err)
	}
	cfg.WALSync = mode
	if *shard != "" {
		i, n, err := parseShard(*shard)
		if err != nil {
			fatal(err)
		}
		cfg.ShardIndex, cfg.ShardCount = i, n
		if *artifact == "" {
			fatal(fmt.Errorf("-shard requires -artifact (cut one with: locec shard -n %d)", n))
		}
		*artifact = shardArtifact(*artifact, i, n)
		cfg.Artifact = *artifact
	}
	log.Info("cold-starting", "artifact", *artifact, "wal", *walDir, "shard", *shard)

	// Bind the port before the snapshot build: while serve.New runs (an
	// artifact or WAL checkpoint restore, and any replay), /healthz
	// answers 200 "booting" and everything else 503, so the fleet sees a
	// live but not-ready process instead of connection refused.
	gate := serve.NewBootGate()
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           gate,
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Info("listening", "addr", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	srv, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	gate.Ready(srv.Handler())
	log.Info("ready")

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

// parseShard parses an "i/N" shard designation.
func parseShard(s string) (i, n int, err error) {
	if _, err := fmt.Sscanf(s, "%d/%d", &i, &n); err != nil {
		return 0, 0, fmt.Errorf("-shard %q: want i/N (e.g. 1/4)", s)
	}
	if n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("-shard %q: index out of range", s)
	}
	return i, n, nil
}

// shardArtifact picks the file shard i of n serves from the -artifact
// path: the cut <stem>-i-of-N.locec beside it when that file exists (the
// path is the base the cutter was given), else the path itself (it names
// the shard file). Nothing is decoded to choose: serve.New refuses a file
// whose shard stamp is not i/n.
func shardArtifact(path string, i, n int) string {
	cut := artifactpkg.ShardPath(path, i, n)
	if _, err := os.Stat(cut); err == nil {
		return cut
	}
	return path
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "locec-serve:", err)
	os.Exit(1)
}
