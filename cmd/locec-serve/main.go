// Command locec-serve is the LoCEC classification service: it synthesizes
// (or loads) a WeChat-like network, classifies every friendship with the
// three-phase pipeline on GOMAXPROCS workers, and serves the result
// over HTTP/JSON from an atomically swappable in-memory snapshot.
//
// Usage:
//
//	locec-serve -addr :8080 -users 800 -variant cnn
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
//	POST /v1/reload               swap in a new snapshot: {"seed":N} retrains,
//	                              {"artifact":"path"} loads without training
//	POST /v1/mutations            mutate the live graph (add/remove/relabel
//	                              edges); only the dirty neighborhood is
//	                              recomputed and a new snapshot published
//
// With -artifact the initial snapshot is deserialized from a file written
// by `locec train -out` instead of trained, so restarts cost O(load).
// With -shard i/N the instance serves one slice of an N-way cut
// (`locec shard -n N`) behind locec-router: it loads only shard i's
// artifact and answers 421 for data other shards own. The port is bound
// before the snapshot loads (a boot gate answers /healthz 200 and
// everything else 503 until then), so fleet probes can tell "booting"
// from "dead".
// With -wal dir/ accepted mutations are appended to a durable write-ahead
// log before they are applied, boot replays the log atop the last
// checkpoint artifact, and a background checkpointer truncates the log —
// a kill -9 loses nothing that was acknowledged (see docs/OPERATIONS.md).
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
	"strings"
	"syscall"
	"time"

	artifactpkg "locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/iodata"
	"locec/internal/serve"
	"locec/internal/social"
	"locec/internal/wal"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		users    = flag.Int("users", 800, "population size (synthetic mode)")
		seed     = flag.Int64("seed", 42, "random seed for the initial snapshot")
		survey   = flag.Float64("survey", 0.4, "fraction of edges with revealed labels (synthetic mode)")
		variant  = flag.String("variant", "cnn", "community classifier: cnn or xgb")
		k        = flag.Int("k", 16, "feature matrix rows (CommCNN)")
		epochs   = flag.Int("epochs", 8, "CommCNN training epochs")
		detector = flag.String("detector", "gn", "Phase I detector: "+strings.Join(core.DetectorNames(), ", "))
		patience = flag.Int("gn-patience", 0, "Girvan-Newman early-stop patience (0 = exact, as locec train divides)")
		cache    = flag.Int("cache", 256, "batch-response LRU cache entries")
		input    = flag.String("input", "", "load a JSON dataset (locec-datagen format) instead of synthesizing")
		artifact = flag.String("artifact", "", "cold-start from a trained artifact (locec train -out) instead of training")
		shard    = flag.String("shard", "", "serve one slice of a sharded fleet as \"i/N\" (requires -artifact; loads <artifact stem>-i-of-N.locec)")

		walDir      = flag.String("wal", "", "directory for the durable mutation WAL (empty = mutations are in-memory only)")
		walSync     = flag.String("wal-sync", "batch", "WAL fsync policy: always (per batch), batch (per burst, group commit) or none")
		ckptRecords = flag.Int("wal-checkpoint-records", 64, "checkpoint when the log holds this many records")
		ckptBytes   = flag.Int64("wal-checkpoint-bytes", 4<<20, "checkpoint when the log reaches this many bytes")
		ckptRatio   = flag.Float64("wal-checkpoint-ratio", 0.25, "checkpoint when mutations-since-checkpoint / graph edges reaches this ratio")
	)
	flag.Parse()

	log := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	cfg := serve.Config{
		Users:      *users,
		Survey:     *survey,
		Seed:       *seed,
		Variant:    *variant,
		K:          *k,
		Epochs:     *epochs,
		Detector:   *detector,
		GNPatience: *patience,
		CacheSize:  *cache,
		Artifact:   *artifact,
		Logger:     log,

		WALDir:            *walDir,
		CheckpointRecords: *ckptRecords,
		CheckpointBytes:   *ckptBytes,
		CheckpointRatio:   *ckptRatio,
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
		// Accept either the exact shard file or the base path the cutter
		// was given (resolved to <stem>-i-of-N.locec).
		if _, err := os.Stat(*artifact); err != nil {
			resolved := artifactpkg.ShardPath(*artifact, i, n)
			if _, rerr := os.Stat(resolved); rerr != nil {
				fatal(fmt.Errorf("neither %s nor %s exists", *artifact, resolved))
			}
			*artifact = resolved
		} else if art, err := artifactpkg.LoadFile(*artifact); err == nil && !art.Meta().Sharded() {
			// The base (full) artifact exists on disk too; prefer the cut.
			resolved := artifactpkg.ShardPath(*artifact, i, n)
			if _, rerr := os.Stat(resolved); rerr == nil {
				*artifact = resolved
			}
		}
		cfg.Artifact = *artifact
	}
	if *input != "" && *artifact != "" {
		fatal(fmt.Errorf("-input and -artifact are mutually exclusive"))
	}
	if *input != "" {
		ds, err := loadDataset(*input)
		if err != nil {
			fatal(err)
		}
		cfg.Source = func(int64) (*social.Dataset, error) { return ds, nil }
	}

	if *artifact != "" {
		log.Info("cold-starting from artifact", "path", *artifact, "shard", *shard)
	} else {
		log.Info("building initial snapshot",
			"users", *users, "variant", *variant, "seed", *seed)
	}

	// Bind the port before the snapshot build: while serve.New runs (a
	// cold start, a full training run, or a WAL replay), /healthz answers
	// 200 "booting" and everything else 503, so the fleet sees a live but
	// not-ready process instead of connection refused.
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

// loadDataset reads a locec-datagen JSON document.
func loadDataset(path string) (*social.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	doc, err := iodata.Decode(f)
	if err != nil {
		return nil, err
	}
	return doc.ToDataset()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "locec-serve:", err)
	os.Exit(1)
}
