// Package serve is the LoCEC serving layer: a long-lived HTTP/JSON
// classification service in the spirit of the paper's deployed system
// (Section V-D). It serves what the offline three-phase run wrote: an
// artifact (`locec train -out`, or a WAL checkpoint) is restored once and
// published as an immutable in-memory snapshot behind an atomic.Pointer.
// Readers — GET /v1/edge, POST /v1/classify, GET /v1/communities/{node},
// GET /v1/stats — never take a lock; POST /v1/reload restores another
// artifact off to the side and swaps the pointer, so lookups keep
// answering from the old snapshot until the new one is complete.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/ring"
	"locec/internal/social"
	"locec/internal/wal"
)

// Config tunes the service.
type Config struct {
	// Variant is unread: an artifact records its classifier. It stays
	// declared for callers that still set it.
	Variant string
	// Detector, when set, names the Phase I rule ("gn", "labelprop",
	// "louvain", "clauset", "lshell") the served artifact must
	// record: a restored artifact re-divides by its own rule, and one
	// that contradicts Detector is refused, at boot and at reload.
	Detector string
	// CacheSize bounds the batch-response LRU cache (0 = 256 entries).
	CacheSize int
	// Artifact is the file the first snapshot is restored from (written
	// by `locec train -out`). Required unless WALDir holds a checkpoint,
	// which boot prefers.
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
	// Logger receives structured request and lifecycle logs (nil = the
	// default slog logger).
	Logger *slog.Logger

	// WALDir, when set, makes mutations durable: every accepted batch is
	// appended to a write-ahead log in this directory before it is
	// applied, boot replays the log's surviving records atop the last
	// checkpoint artifact, and a background checkpointer exports a snapshot
	// and truncates the log when that pays (maybeCheckpoint). See
	// docs/OPERATIONS.md.
	WALDir string
	// WALSync is the fsync policy (wal.SyncBatch — group commit — by
	// default).
	WALSync wal.SyncMode
	// WALFS overrides the log's filesystem; nil = the real one. The
	// crash-injection tests inject a faulting in-memory FS here.
	WALFS wal.FS
	// ManualCheckpoints turns the cost rule off: only CheckpointNow and
	// reloads checkpoint. Tests set it to keep the checkpointer still.
	ManualCheckpoints bool
}

// snapshot is one immutable classified dataset. Everything reachable from
// here is read-only after publication; handlers grab the pointer once per
// request and never observe a partial reload.
type snapshot struct {
	version int64
	// versionHeader is version formatted once, the X-Snapshot-Version
	// value of every response this snapshot answers; set by publish.
	versionHeader []string
	seed          int64
	// epoch is the global mutation-epoch counter's value when this
	// snapshot was published; it only advances when a mutation batch is
	// applied (reloads keep the current value).
	epoch     int64
	ds        *social.Dataset
	res       *core.Result
	builtAt   time.Time
	buildTime time.Duration
	// applied sums the apply time of every epoch since New up to this
	// snapshot, boot replay included: the checkpoint cost rule's clock.
	applied time.Duration

	// pipe is the pipeline the incremental engine applies mutations
	// through, under res's frozen models and division rule. nil for
	// snapshots restored from an artifact without an embedded dataset,
	// whose graph carries topology only: those cannot be mutated.
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
		art, err := s.export()
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

// export renders the snapshot as an artifact — graph, pipeline export and
// seed — the step GET /v1/artifact and the WAL checkpoint share.
func (s *snapshot) export() (*artifact.Artifact, error) {
	ex, err := s.res.Export()
	if err != nil {
		return nil, err
	}
	return artifact.New(s.ds.G, ex, s.seed)
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
	// readers never touch it. reloads counts the reloads published since
	// New returned.
	reloadMu sync.Mutex
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
	walFS       wal.FS
	walLog      *wal.Log
	walReplayed atomic.Int64
	ckptCh      chan struct{}
	ckptDone    chan struct{}
	// The cost rule (maybeCheckpoint), in ns: the applied time the last
	// checkpoint covered and what it took. ckptMu orders CheckpointNow.
	ckptMu      sync.Mutex
	ckptApplied atomic.Int64
	ckptCost    atomic.Int64
}

// New restores the initial snapshot (blocking until it is ready) and
// returns a ready-to-serve Server.
func New(cfg Config) (*Server, error) {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 256
	}
	if _, err := core.ParseDetector(cfg.Detector); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if cfg.ShardCount < 0 || (cfg.ShardCount > 0 && (cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.ShardCount)) {
		return nil, fmt.Errorf("serve: shard %d/%d out of range", cfg.ShardIndex, cfg.ShardCount)
	}
	if cfg.ShardCount > 0 && cfg.WALDir != "" {
		return nil, fmt.Errorf("serve: shards serve read-only; a WAL belongs on the full server")
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
		s.walFS = cfg.WALFS
		if s.walFS == nil {
			s.walFS = wal.OSFS{}
		}
	}
	if err := s.boot(); err != nil {
		return nil, err
	}
	if s.walLog != nil {
		s.ckptCh = make(chan struct{}, 1)
		s.ckptDone = make(chan struct{})
		go s.checkpointer()
	}
	go s.mutationWorker()
	s.ready.Store(true)
	return s, nil
}

// boot builds the first snapshot and publishes it once. The base state is
// the WAL checkpoint, else Config.Artifact; with a WAL, the log is then
// opened and the records the base does not cover are replayed onto it. No
// boot counts as a reload. Called from New before any background
// goroutine starts.
func (s *Server) boot() error {
	t0 := time.Now()
	var snap *snapshot
	var err error
	if s.cfg.WALDir != "" {
		if snap, err = s.readCheckpoint(t0); err != nil {
			return err
		}
	}
	if snap == nil {
		if s.cfg.Artifact == "" {
			return errors.New("serve: nothing to serve: no artifact given and no WAL checkpoint; write one with `locec train -out`")
		}
		if snap, err = s.load(nil, s.cfg.Artifact); err != nil {
			return err
		}
		s.announce(snap, s.cfg.Artifact)
	}
	if s.cfg.WALDir != "" {
		s.ckptCost.Store(int64(snap.buildTime))
		if snap, err = s.recoverWAL(snap, t0); err != nil {
			return err
		}
	}
	s.publish(snap)
	return nil
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

// SnapshotInfo describes a published snapshot (returned by ReloadArtifact
// and the stats endpoint).
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
	// (false for an artifact without an embedded dataset, which carries
	// topology only).
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

// ReloadArtifact publishes a snapshot restored from an artifact file (see
// internal/artifact and docs/FORMATS.md): readers keep serving the
// previous snapshot until the new one is fully decoded, and concurrent
// reloads are serialized. Artifacts written with an embedded dataset
// (locec train -embed-dataset, or any WAL checkpoint) come back
// *mutable*; train-only artifacts serve read-only, and a WAL server
// refuses them.
func (s *Server) ReloadArtifact(path string) (SnapshotInfo, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	snap, err := s.load(s.current(), path)
	if err != nil {
		return SnapshotInfo{}, err
	}
	if s.walLog == nil {
		s.publish(snap)
	} else if err := s.publishDurable(snap, path); err != nil {
		return SnapshotInfo{}, err
	}
	s.reloads.Add(1)
	s.announce(snap, path)
	return snap.info(), nil
}

// errImmutable marks a change an immutable snapshot cannot take: a
// mutation, or its publication on a WAL server. The HTTP layer answers it
// with 409.
var errImmutable = errors.New("serve: immutable snapshot")

// immutable is the one refusal of a change to s, a snapshot restored
// without its raw dataset. A shard's is a cut, which never carries the
// dataset and cannot take a WAL either, so its refusal names the full
// trained server in the router's words.
func (s *snapshot) immutable() error {
	if s.ring != nil {
		return fmt.Errorf("%w: shard %d/%d serves reads only; send mutations to the full trained server: "+
			"locec-serve -artifact <full .locec written by locec train -embed-dataset>, with -wal for durability",
			errImmutable, s.shardIndex, s.shardCount)
	}
	return fmt.Errorf("%w: snapshot %d carries no raw dataset; serve a WAL checkpoint or an artifact written by `locec train -embed-dataset`",
		errImmutable, s.version)
}

// announce logs a reloaded or booted snapshot restored from path.
func (s *Server) announce(snap *snapshot, path string) {
	s.log.Info("snapshot published from artifact",
		"version", snap.version, "path", path,
		"nodes", snap.ds.G.NumNodes(), "edges", snap.ds.G.NumEdges(),
		"communities", snap.res.NumCommunities(),
		"mutable", snap.pipe != nil,
		"load_seconds", snap.buildTime.Seconds())
}

// newSnapshot is the one constructor of a snapshot: ds and res as pipe
// (nil = immutable) maintains them, numbered one past prev (nil at boot),
// carrying prev's applied time and stamped with the live mutation epoch.
// Callers that know the log position stamp walSeq before publishing.
func (s *Server) newSnapshot(prev *snapshot, seed int64, ds *social.Dataset, res *core.Result, pipe *core.Pipeline, buildTime time.Duration) *snapshot {
	version, applied := int64(1), time.Duration(0)
	if prev != nil {
		version, applied = prev.version+1, prev.applied
	}
	return &snapshot{
		version:   version,
		applied:   applied,
		seed:      seed,
		epoch:     s.epochs.Load(),
		ds:        ds,
		res:       res,
		pipe:      pipe,
		builtAt:   time.Now(),
		buildTime: buildTime,
	}
}

// load restores the artifact at path into an unpublished snapshot
// numbered after prev.
func (s *Server) load(prev *snapshot, path string) (*snapshot, error) {
	t0 := time.Now()
	art, err := artifact.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return s.restore(prev, art, t0)
}

// restore builds (but does not publish) a snapshot from a decoded
// artifact: Artifact.Restore, whose result re-divides dirty egos by the
// rule the artifact records. A configured detector must agree with it.
func (s *Server) restore(prev *snapshot, art *artifact.Artifact, t0 time.Time) (*snapshot, error) {
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
	ds, res, pipe, err := art.Restore()
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if det, _ := core.ParseDetector(s.cfg.Detector); s.cfg.Detector != "" && det != res.Division.Detector {
		return nil, fmt.Errorf("serve: artifact was divided by %s, server is configured with detector %s",
			res.Division.Detector, det)
	}
	snap := s.newSnapshot(prev, meta.Seed, ds, res, pipe, time.Since(t0))
	if meta.Sharded() {
		snap.shardIndex = meta.ShardIndex
		snap.shardCount = meta.ShardCount
		snap.ring = ring.MustNew(meta.ShardCount)
	}
	return snap, nil
}

// publish makes snap the live snapshot, formatting its version header.
func (s *Server) publish(snap *snapshot) {
	snap.versionHeader = []string{strconv.FormatInt(snap.version, 10)}
	s.cur.Store(snap)
}

// current returns the live snapshot; never nil after New succeeds.
func (s *Server) current() *snapshot { return s.cur.Load() }

// Dataset returns the live snapshot's dataset. Treat it as read-only: it
// is shared with every in-flight request.
func (s *Server) Dataset() *social.Dataset { return s.current().ds }

// Version returns the live snapshot's version: 1 after New (2 when boot
// replayed WAL records), +1 per reload or mutation epoch.
func (s *Server) Version() int64 { return s.current().version }
