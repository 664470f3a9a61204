// Package serve is the LoCEC serving layer: a long-lived HTTP/JSON
// classification service in the spirit of the paper's deployed system
// (Section V-D). A dataset is loaded (or synthesized) once, classified by
// the three-phase pipeline across a sharded worker pool, and the finished
// run is published as an immutable in-memory snapshot behind an
// atomic.Pointer. Readers — GET /v1/edge, POST /v1/classify,
// GET /v1/communities/{node}, GET /v1/stats — never take a lock;
// POST /v1/reload classifies a fresh dataset off to the side and swaps the
// pointer, so lookups keep answering from the old snapshot until the new
// one is complete.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/gbdt"
	"locec/internal/graph"
	"locec/internal/logreg"
	"locec/internal/ring"
	"locec/internal/social"
	"locec/internal/wal"
	"locec/internal/wechat"
)

// Config tunes the service.
type Config struct {
	// Users / Survey / Seed drive the default synthetic dataset source.
	Users  int
	Survey float64
	Seed   int64
	// Variant is the Phase II classifier: "cnn" (default) or "xgb".
	Variant string
	// K / Epochs tune CommCNN; Rounds / MaxDepth tune XGBoost. Zero
	// values take the engine defaults.
	K, Epochs        int
	Rounds, MaxDepth int
	// Detector picks the Phase I algorithm ("gn" default, "labelprop",
	// "louvain", or a seed-grown local detector "clauset", "lshell",
	// "lemon") and GNPatience bounds Girvan–Newman.
	Detector   string
	GNPatience int
	// CacheSize bounds the batch-response LRU cache (0 = 256 entries).
	CacheSize int
	// Artifact, when set, cold-starts the initial snapshot from this
	// artifact file (written by `locec train -out`) instead of training a
	// pipeline — restart cost becomes O(load), not O(train). Later
	// seed-based reloads still use Source.
	Artifact string
	// ShardIndex / ShardCount declare this instance one member of a
	// sharded fleet (`locec-serve -shard i/N` behind locec-router): the
	// artifact must be shard i of an N-way cut (`locec shard -n N`), and
	// requests for nodes or edges the consistent-hash ring assigns to
	// another shard are refused with 421 so a misconfigured router can
	// never read partial data as authoritative. ShardCount 0 (the
	// default) serves everything.
	ShardIndex int
	ShardCount int
	// Source overrides the dataset source; the default synthesizes a
	// WeChat-like network from Users/Survey and the given seed.
	Source func(seed int64) (*social.Dataset, error)
	// Logger receives structured request and lifecycle logs (nil = the
	// default slog logger).
	Logger *slog.Logger

	// WALDir, when set, makes mutations durable: every accepted batch is
	// appended to a write-ahead log in this directory before it is
	// applied, boot replays the log's surviving records atop the last
	// checkpoint artifact, and a background checkpointer periodically
	// exports a snapshot and truncates the log. See docs/OPERATIONS.md.
	WALDir string
	// WALSync is the fsync policy (wal.SyncBatch — group commit — by
	// default).
	WALSync wal.SyncMode
	// WALFS overrides the log's filesystem; nil = the real one. The
	// crash-injection tests inject a faulting in-memory FS here.
	WALFS wal.FS
	// CheckpointRecords / CheckpointBytes / CheckpointRatio tune when the
	// checkpointer fires: log records, log bytes, or mutations applied
	// since the last checkpoint per graph edge (the Δ/E compaction
	// policy — big graphs checkpoint by churn fraction, not epoch count).
	// Zero values take the defaults (64 records, 4 MiB, 0.25).
	CheckpointRecords int
	CheckpointBytes   int64
	CheckpointRatio   float64
}

// snapshot is one immutable classified dataset. Everything reachable from
// here is read-only after publication; handlers grab the pointer once per
// request and never observe a partial reload.
type snapshot struct {
	version int64
	seed    int64
	// epoch is the global mutation-epoch counter's value when this
	// snapshot was published; it only advances when a mutation batch is
	// applied (reloads keep the current value).
	epoch     int64
	ds        *social.Dataset
	res       *core.Result
	builtAt   time.Time
	buildTime time.Duration

	// pipe is the pipeline that trained this snapshot — the incremental
	// engine applies mutations through it so the frozen models and the
	// division config match. nil for artifact-loaded snapshots without an
	// embedded dataset, whose graph carries topology only: those cannot
	// be mutated.
	pipe *core.Pipeline

	// walSeq is the last WAL sequence number whose effects this snapshot
	// includes (0 without a WAL). The checkpointer truncates the log
	// through it; recovery replays only records beyond it.
	walSeq uint64

	// shardIndex/shardCount and ring are set when the snapshot was cut
	// from an N-way sharded artifact set: ring is the same consistent-hash
	// function the cutter and the router compute, used here to refuse
	// requests for data another shard owns. ring == nil means this
	// snapshot owns the whole graph.
	shardIndex int
	shardCount int
	ring       *ring.Ring

	// artOnce memoizes the snapshot's serialized artifact: the snapshot
	// is immutable, so N concurrent GET /v1/artifact downloads share one
	// encode and one buffer instead of paying O(edges×classes) each.
	artOnce  sync.Once
	artBytes []byte
	artErr   error
}

// artifactBytes returns the snapshot serialized as an artifact, encoding
// on first use.
func (s *snapshot) artifactBytes() ([]byte, error) {
	s.artOnce.Do(func() {
		ex, err := s.res.Export()
		if err != nil {
			s.artErr = fmt.Errorf("serve: export: %w", err)
			return
		}
		art, err := artifact.New(s.ds.G, ex, s.seed)
		if err != nil {
			s.artErr = fmt.Errorf("serve: export: %w", err)
			return
		}
		art.StampCreated(s.builtAt)
		var buf bytes.Buffer
		if err := art.Save(&buf); err != nil {
			s.artErr = fmt.Errorf("serve: export: %w", err)
			return
		}
		s.artBytes = buf.Bytes()
	})
	return s.artBytes, s.artErr
}

// ownsNode reports whether this snapshot holds node u's data (always
// true for an unsharded snapshot).
func (s *snapshot) ownsNode(u graph.NodeID) bool {
	return s.ring == nil || s.ring.OwnerNode(uint32(u)) == s.shardIndex
}

// ownsEdge reports whether this snapshot holds edge {u,v}'s prediction.
func (s *snapshot) ownsEdge(u, v graph.NodeID) bool {
	return s.ring == nil || s.ring.OwnerEdge(uint32(u), uint32(v)) == s.shardIndex
}

// label returns the predicted label and probability vector for {u,v},
// with ok=false when the edge does not exist in the snapshot. The OK form
// guarantees an unknown edge can never surface a fabricated zero-value
// label.
func (s *snapshot) label(u, v graph.NodeID) (social.Label, []float64, bool) {
	l, probs, ok := s.res.Edges.Lookup((graph.Edge{U: u, V: v}).Key())
	if !ok {
		return social.Unlabeled, nil, false
	}
	return l, probs, true
}

// Server is the classification service. Create with New, mount Handler on
// an http.Server, and Close when done (stops the mutation applier).
type Server struct {
	cfg   Config
	log   *slog.Logger
	cur   atomic.Pointer[snapshot]
	cache *lruCache
	lat   *routeLatency
	start time.Time

	// ready flips true once New has finished — snapshot loaded, WAL
	// replay (if any) complete, background workers running — and false
	// again on Close. GET /readyz reports it; /healthz stays pure
	// liveness so a router's health probe and an orchestrator's restart
	// probe can disagree (booting: alive but not ready).
	ready atomic.Bool

	// reloadMu serializes snapshot builds (reloads and mutation epochs);
	// readers never touch it.
	reloadMu sync.Mutex
	version  atomic.Int64
	reloads  atomic.Int64

	// Mutation intake: Mutate enqueues jobs on mutCh under mutMu (which
	// also guards closed); the background applier coalesces bursts into
	// epochs. Counters feed GET /v1/stats.
	mutMu      sync.Mutex
	closed     bool
	mutCh      chan mutationJob
	quit       chan struct{}
	workerDone chan struct{}

	epochs         atomic.Int64
	mutApplied     atomic.Int64
	mutFailed      atomic.Int64
	mutPending     atomic.Int64
	lastDirtyNodes atomic.Int64
	lastDirtyEdges atomic.Int64
	lastApplyNs    atomic.Int64
	// Size of the live dataset's edit delta, and how many epochs folded it
	// back into the per-edge maps (a count: a "last epoch folded" flag
	// would be overwritten before anyone polled it).
	lastDatasetEdits atomic.Int64
	mutFolds         atomic.Int64

	// WAL state; walLog is nil when Config.WALDir is empty.
	walFS        wal.FS
	walLog       *wal.Log
	walReplayed  atomic.Int64
	walSinceCkpt atomic.Int64 // mutations since last checkpoint: Δ of Δ/E
	ckptForce    atomic.Bool
	ckptCh       chan struct{}
	ckptDone     chan struct{}
}

// New builds the initial snapshot (blocking until the first classification
// finishes) and returns a ready-to-serve Server.
func New(cfg Config) (*Server, error) {
	if cfg.Users <= 0 {
		cfg.Users = 400
	}
	if cfg.Survey <= 0 {
		cfg.Survey = 0.4
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 256
	}
	if _, err := core.ParseDetector(cfg.Detector); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	switch cfg.Variant {
	case "", "cnn", "xgb":
	default:
		return nil, fmt.Errorf("serve: unknown variant %q (want cnn or xgb)", cfg.Variant)
	}
	if cfg.ShardCount < 0 || (cfg.ShardCount > 0 && (cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.ShardCount)) {
		return nil, fmt.Errorf("serve: shard %d/%d out of range", cfg.ShardIndex, cfg.ShardCount)
	}
	if cfg.ShardCount > 0 {
		if cfg.Artifact == "" {
			return nil, fmt.Errorf("serve: shard %d/%d needs a cut artifact (locec shard -n %d, then -artifact)",
				cfg.ShardIndex, cfg.ShardCount, cfg.ShardCount)
		}
		if cfg.WALDir != "" {
			return nil, fmt.Errorf("serve: shards serve read-only; a WAL belongs on the full (trainable) server")
		}
	}
	if cfg.Source == nil {
		users, survey := cfg.Users, cfg.Survey
		cfg.Source = func(seed int64) (*social.Dataset, error) {
			net, err := wechat.Generate(wechat.DefaultConfig(users, seed))
			if err != nil {
				return nil, err
			}
			net.RunSurvey(survey, seed+1)
			return net.Dataset, nil
		}
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	s := &Server{
		cfg:        cfg,
		log:        log,
		cache:      newLRUCache(cfg.CacheSize),
		lat:        newRouteLatency(),
		start:      time.Now(),
		mutCh:      make(chan mutationJob, mutationQueueDepth),
		quit:       make(chan struct{}),
		workerDone: make(chan struct{}),
	}
	if cfg.WALDir != "" {
		if s.cfg.CheckpointRecords <= 0 {
			s.cfg.CheckpointRecords = 64
		}
		if s.cfg.CheckpointBytes <= 0 {
			s.cfg.CheckpointBytes = 4 << 20
		}
		if s.cfg.CheckpointRatio <= 0 {
			s.cfg.CheckpointRatio = 0.25
		}
		s.walFS = cfg.WALFS
		if s.walFS == nil {
			s.walFS = wal.OSFS{}
		}
		if err := s.bootWAL(); err != nil {
			return nil, err
		}
		s.ckptCh = make(chan struct{}, 1)
		s.ckptDone = make(chan struct{})
		go s.checkpointer()
	} else if cfg.Artifact != "" {
		if _, err := s.ReloadArtifact(cfg.Artifact); err != nil {
			return nil, err
		}
	} else if _, err := s.Reload(cfg.Seed); err != nil {
		return nil, err
	}
	go s.mutationWorker()
	s.ready.Store(true)
	return s, nil
}

// Ready reports whether the server has a published snapshot and has
// finished WAL replay — the /readyz condition.
func (s *Server) Ready() bool { return s.ready.Load() }

// Close stops the background mutation applier. Jobs already accepted
// onto the queue — every one of them may have been acknowledged with a
// 202 — are drained and applied (and, with a WAL, made durable) before
// Close returns: an orderly stop never loses acked batches. Readers keep
// working against the last published snapshot; further Mutate calls
// return an error.
func (s *Server) Close() {
	s.ready.Store(false)
	s.mutMu.Lock()
	already := s.closed
	s.closed = true
	s.mutMu.Unlock()
	if !already {
		close(s.quit)
	}
	<-s.workerDone
	if s.walLog != nil {
		<-s.ckptDone
		if err := s.walLog.Close(); err != nil && !errors.Is(err, wal.ErrClosed) {
			s.log.Error("wal close", "err", err)
		}
	}
}

// SnapshotInfo describes a published snapshot (returned by Reload and the
// stats endpoint).
type SnapshotInfo struct {
	Version     int64   `json:"version"`
	Seed        int64   `json:"seed"`
	Epoch       int64   `json:"epoch"`
	Nodes       int     `json:"nodes"`
	Edges       int     `json:"edges"`
	Communities int     `json:"communities"`
	Classifier  string  `json:"classifier"`
	BuiltAt     string  `json:"built_at"`
	BuildSecs   float64 `json:"build_seconds"`
	// Mutable reports whether POST /v1/mutations can evolve this snapshot
	// (false for artifact-loaded snapshots, which carry topology only).
	Mutable bool `json:"mutable"`
	// Shard is "i/N" when this snapshot is one slice of an N-way cut
	// (empty for a full snapshot). Nodes/Edges then mean: Nodes is the
	// GLOBAL node count, Edges counts only the slice's owned edges.
	Shard string `json:"shard,omitempty"`
}

func (s *snapshot) info() SnapshotInfo {
	shard := ""
	if s.ring != nil {
		shard = fmt.Sprintf("%d/%d", s.shardIndex, s.shardCount)
	}
	return SnapshotInfo{
		Shard:       shard,
		Version:     s.version,
		Seed:        s.seed,
		Epoch:       s.epoch,
		Nodes:       s.ds.G.NumNodes(),
		Edges:       s.ds.G.NumEdges(),
		Communities: s.res.NumCommunities(),
		Classifier:  s.res.ClassifierName,
		BuiltAt:     s.builtAt.UTC().Format(time.RFC3339),
		BuildSecs:   s.buildTime.Seconds(),
		Mutable:     s.pipe != nil,
	}
}

// Reload classifies a fresh dataset for the given seed and atomically
// publishes it. Concurrent readers keep serving the previous snapshot for
// the whole build; concurrent reloads are serialized.
func (s *Server) Reload(seed int64) (SnapshotInfo, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return s.reloadLocked(seed)
}

// ReloadNext reloads with the live snapshot's seed plus one. The default
// seed is read under the reload lock, so concurrent ReloadNext calls each
// produce a distinct dataset instead of reusing the same increment.
func (s *Server) ReloadNext() (SnapshotInfo, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return s.reloadLocked(s.current().seed + 1)
}

// reloadLocked builds and publishes a snapshot; callers hold reloadMu.
func (s *Server) reloadLocked(seed int64) (SnapshotInfo, error) {
	if s.cfg.ShardCount > 0 {
		return SnapshotInfo{}, fmt.Errorf(
			"serve: shard %d/%d serves a cut artifact; retraining would publish the full graph on one shard — reload with a shard artifact instead",
			s.cfg.ShardIndex, s.cfg.ShardCount)
	}
	t0 := time.Now()
	ds, err := s.cfg.Source(seed)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("serve: dataset source: %w", err)
	}
	res, pipe, err := s.classify(ds, seed)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("serve: classify: %w", err)
	}
	snap := &snapshot{
		version:   s.version.Add(1),
		seed:      seed,
		epoch:     s.epochs.Load(),
		ds:        ds,
		res:       res,
		pipe:      pipe,
		builtAt:   time.Now(),
		buildTime: time.Since(t0),
	}
	if s.walLog != nil {
		// The fresh dataset supersedes every logged record; stamping the
		// current sequence (and forcing a checkpoint below) truncates them
		// away instead of replaying them onto the wrong graph.
		snap.walSeq = s.walLog.Seq()
	}
	s.cur.Store(snap)
	s.reloads.Add(1)
	s.log.Info("snapshot published",
		"version", snap.version, "seed", seed,
		"nodes", ds.G.NumNodes(), "edges", ds.G.NumEdges(),
		"communities", res.NumCommunities(),
		"build_seconds", snap.buildTime.Seconds())
	s.forceCheckpoint()
	return snap.info(), nil
}

// ReloadArtifact publishes a snapshot deserialized from an artifact file
// (see internal/artifact and docs/FORMATS.md) — the "ship a trained
// snapshot, swap it in" half of the offline/online split. No training
// happens; readers keep serving the previous snapshot until the new one is
// fully decoded, exactly as with a retrain reload. Artifacts written with
// an embedded dataset (locec train -embed-dataset, or any WAL checkpoint)
// come back *mutable*; train-only artifacts serve read-only.
func (s *Server) ReloadArtifact(path string) (SnapshotInfo, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	t0 := time.Now()
	art, err := artifact.LoadFile(path)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("serve: %w", err)
	}
	snap, err := s.snapshotFromArtifact(art, t0)
	if err != nil {
		return SnapshotInfo{}, err
	}
	if s.walLog != nil {
		snap.walSeq = s.walLog.Seq()
	}
	s.cur.Store(snap)
	s.reloads.Add(1)
	s.log.Info("snapshot published from artifact",
		"version", snap.version, "path", path,
		"nodes", snap.ds.G.NumNodes(), "edges", snap.ds.G.NumEdges(),
		"communities", snap.res.NumCommunities(),
		"mutable", snap.pipe != nil,
		"load_seconds", snap.buildTime.Seconds())
	s.forceCheckpoint()
	return snap.info(), nil
}

// snapshotFromArtifact builds (but does not publish) a snapshot from a
// decoded artifact. When the artifact embeds its raw dataset and carries
// trained models, the snapshot is wired to a pipeline so it can keep
// applying mutations; otherwise pipe stays nil — every handler reads only
// ds.G from the dataset, and mutation requests are rejected cleanly.
func (s *Server) snapshotFromArtifact(art *artifact.Artifact, t0 time.Time) (*snapshot, error) {
	g, err := art.Graph()
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	ex, err := art.Export()
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	// Handlers index Egos by node ID, so the ego list and the graph must
	// agree (the artifact layer pins both to its meta count; this guards
	// the pairing directly).
	if len(ex.Egos) != g.NumNodes() {
		return nil, fmt.Errorf("serve: artifact has %d ego results for a %d-node graph",
			len(ex.Egos), g.NumNodes())
	}
	meta := art.Meta()
	// The shard stamp is intrinsic to the artifact and declared in the
	// config; they must agree exactly. Loading the wrong slice (or a full
	// artifact on a shard, or a slice on a full server) would serve
	// answers the router has no way to detect as partial.
	if meta.Sharded() != (s.cfg.ShardCount > 0) ||
		(meta.Sharded() && (meta.ShardIndex != s.cfg.ShardIndex || meta.ShardCount != s.cfg.ShardCount)) {
		return nil, fmt.Errorf("serve: artifact is shard %d/%d, server is configured as %d/%d (0/0 = unsharded)",
			meta.ShardIndex, meta.ShardCount, s.cfg.ShardIndex, s.cfg.ShardCount)
	}
	ds, err := art.Dataset()
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	var res *core.Result
	var pipe *core.Pipeline
	if ds != nil {
		pipe = core.NewPipeline(s.coreConfig(meta.Seed))
		if res, err = pipe.RunFromArtifact(ex); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if res.Classifier == nil || res.Combiner == nil {
			// The raw dataset is here but the trained models are not (no
			// model blob in the artifact): incremental application is
			// impossible, so the snapshot serves read-only.
			pipe = nil
		}
	} else {
		if res, err = core.NewPipeline(core.Config{Seed: meta.Seed}).RunFromArtifact(ex); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		ds = &social.Dataset{G: g}
	}
	snap := &snapshot{
		version:   s.version.Add(1),
		seed:      meta.Seed,
		epoch:     s.epochs.Load(),
		ds:        ds,
		res:       res,
		pipe:      pipe,
		builtAt:   time.Now(),
		buildTime: time.Since(t0),
	}
	if meta.Sharded() {
		snap.shardIndex = meta.ShardIndex
		snap.shardCount = meta.ShardCount
		snap.ring = ring.MustNew(meta.ShardCount)
	}
	return snap, nil
}

// coreConfig renders the server's pipeline configuration for a seed; both
// fresh training (classify) and mutable artifact restores use it, so a
// snapshot restored from a checkpoint applies mutations under exactly the
// configuration that would have trained it.
func (s *Server) coreConfig(seed int64) core.Config {
	divCfg := core.DivisionConfig{
		Seed:       seed,
		GNPatience: s.cfg.GNPatience,
	}
	// Validated in New; ParseDetector maps "" to Girvan–Newman.
	divCfg.Detector, _ = core.ParseDetector(s.cfg.Detector)
	coreCfg := core.Config{Division: divCfg, Seed: seed}
	if s.cfg.Variant == "xgb" {
		coreCfg.Classifier = &core.XGBClassifier{
			Config: gbdt.Config{Rounds: s.cfg.Rounds, MaxDepth: s.cfg.MaxDepth, Seed: seed},
			Seed:   seed,
		}
	} else {
		coreCfg.Classifier = &core.CNNClassifier{
			K: s.cfg.K, Epochs: s.cfg.Epochs, Seed: seed,
		}
	}
	coreCfg.Combiner = logreg.Config{Classes: social.NumLabels, Seed: seed + 101}
	return coreCfg
}

// classify runs the three-phase pipeline. The pipeline is returned
// alongside the result so the snapshot can later apply mutations through
// the same configuration and frozen models.
func (s *Server) classify(ds *social.Dataset, seed int64) (*core.Result, *core.Pipeline, error) {
	pipe := core.NewPipeline(s.coreConfig(seed))
	res, err := pipe.Run(ds)
	if err != nil {
		return nil, nil, err
	}
	return res, pipe, nil
}

// current returns the live snapshot; never nil after New succeeds.
func (s *Server) current() *snapshot { return s.cur.Load() }

// Dataset returns the live snapshot's dataset. Treat it as read-only: it
// is shared with every in-flight request.
func (s *Server) Dataset() *social.Dataset { return s.current().ds }

// Version returns the live snapshot's version (1 after New, +1 per reload).
func (s *Server) Version() int64 { return s.current().version }
