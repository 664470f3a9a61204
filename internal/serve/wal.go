package serve

// The durability layer: recovery-on-boot, the background checkpointer and
// the WAL stats surface. The log itself (format, crash-injection seam,
// truncate-at-first-bad-record recovery) lives in internal/wal; this file
// is the serving-side policy around it.
//
// Recovery contract: state after a crash = the checkpoint artifact (or a
// deterministic rebuild of the boot dataset when none exists yet) plus a
// replay of every intact log record with seq > the checkpoint's WALSeq.
// Each record is applied exactly as a live singleton batch would be, and
// incremental application is deterministic and order-insensitive modulo
// the final graph (VerifyIncremental's 1e-12 guarantee), so replayed
// state ≡ the state the crashed process had acknowledged.

import (
	"errors"
	"fmt"
	"io/fs"
	"time"

	"locec/internal/artifact"
	"locec/internal/wal"
)

// bootWAL builds the initial snapshot from the WAL directory: checkpoint
// artifact if present (else the configured artifact/seed source), then a
// replay of the log's surviving records. Called from New before the
// mutation worker starts, so no concurrency yet.
func (s *Server) bootWAL() error {
	dir := s.cfg.WALDir
	var snap *snapshot
	t0 := time.Now()
	ckptData, err := s.walFS.ReadFile(wal.CheckpointPath(dir))
	switch {
	case err == nil:
		// Parsed in place: ReadFile hands over a buffer the caller owns
		// (MemFS copies), so the checkpoint is read once, not twice.
		art, err := artifact.LoadBytes(ckptData)
		if err != nil {
			return fmt.Errorf("serve: wal checkpoint: %w", err)
		}
		if snap, err = s.snapshotFromArtifact(art, t0); err != nil {
			return fmt.Errorf("serve: wal checkpoint: %w", err)
		}
		meta := art.Meta()
		snap.walSeq = meta.WALSeq
		s.epochs.Store(meta.Epoch)
		snap.epoch = meta.Epoch
		s.log.Info("wal checkpoint restored",
			"epoch", meta.Epoch, "wal_seq", meta.WALSeq,
			"nodes", snap.ds.G.NumNodes(), "edges", snap.ds.G.NumEdges(),
			"mutable", snap.pipe != nil)
	case errors.Is(err, fs.ErrNotExist):
		// First boot, or a crash before the first checkpoint. Rebuild the
		// base state exactly as a WAL-less boot would: the dataset source
		// and training are deterministic per seed (artifacts are
		// byte-identical for identical inputs), so the log's records still
		// apply on top.
		if s.cfg.Artifact != "" {
			if _, err := s.ReloadArtifact(s.cfg.Artifact); err != nil {
				return err
			}
		} else if _, err := s.Reload(s.cfg.Seed); err != nil {
			return err
		}
		snap = s.current()
	default:
		return fmt.Errorf("serve: wal checkpoint: %w", err)
	}

	l, batches, err := wal.Open(s.walFS, dir, s.cfg.WALSync)
	if err != nil {
		return err
	}
	s.walLog = l
	if st := l.Stats(); st.TruncatedBytes > 0 {
		s.log.Warn("wal recovery truncated a torn tail",
			"bytes", st.TruncatedBytes, "surviving_records", st.RecoveredRecords)
	}

	// Replay the records the checkpoint does not already cover.
	replay := batches[:0]
	for _, b := range batches {
		if b.Seq > snap.walSeq {
			replay = append(replay, b)
		}
	}
	if len(replay) == 0 {
		s.cur.Store(snap)
		return nil
	}
	if snap.pipe == nil {
		return fmt.Errorf("serve: wal has %d records to replay but the boot snapshot is immutable (artifact without an embedded dataset?)", len(replay))
	}
	ds, res := snap.ds, snap.res
	applied := 0
	for _, b := range replay {
		nds, nres, _, err := snap.pipe.ApplyMutations(ds, res, b.Muts)
		if err != nil {
			// Deterministic apply: a record that fails here failed (or
			// would have failed) identically in the crashed process — its
			// effects were never part of any acknowledged state. Skip it.
			s.log.Warn("wal replay: batch rejected", "seq", b.Seq, "mutations", len(b.Muts), "err", err)
			continue
		}
		ds, res = nds, nres
		applied++
	}
	snap = &snapshot{
		version:   s.version.Add(1),
		seed:      snap.seed,
		epoch:     s.epochs.Add(int64(applied)),
		ds:        ds,
		res:       res,
		pipe:      snap.pipe,
		builtAt:   time.Now(),
		buildTime: time.Since(t0),
		walSeq:    replay[len(replay)-1].Seq,
	}
	s.cur.Store(snap)
	s.walReplayed.Store(int64(len(replay)))
	s.log.Info("wal replayed",
		"records", len(replay), "applied", applied,
		"epoch", snap.epoch, "wal_seq", snap.walSeq,
		"seconds", time.Since(t0).Seconds())
	return nil
}

// kickCheckpoint nudges the background checkpointer (non-blocking; a
// pending nudge coalesces). No-op before the checkpointer exists or
// without a WAL.
func (s *Server) kickCheckpoint() {
	if s.ckptCh == nil {
		return
	}
	select {
	case s.ckptCh <- struct{}{}:
	default:
	}
}

// forceCheckpoint marks the next checkpointer pass unconditional — used
// after reloads, whose fresh dataset strands every logged record.
func (s *Server) forceCheckpoint() {
	if s.walLog == nil {
		return
	}
	s.ckptForce.Store(true)
	s.kickCheckpoint()
}

// checkpointer is the background goroutine that turns log growth into
// checkpoints. It only ever runs one checkpoint at a time and exits on
// Close.
func (s *Server) checkpointer() {
	defer close(s.ckptDone)
	for {
		select {
		case <-s.quit:
			return
		case <-s.ckptCh:
			s.maybeCheckpoint()
		}
	}
}

// maybeCheckpoint checkpoints when a threshold trips: log records, log
// bytes, or the Δ/E churn ratio — mutations applied since the last
// checkpoint over current graph edges, so a million-edge graph is not
// re-exported every 64 tiny epochs nor allowed to replay half its edge
// set on boot.
func (s *Server) maybeCheckpoint() {
	st := s.walLog.Stats()
	snap := s.current()
	force := s.ckptForce.Swap(false)
	if snap.pipe == nil {
		return // immutable snapshot: nothing mutates, nothing to checkpoint
	}
	if !force {
		delta := float64(s.walSinceCkpt.Load())
		edges := float64(max(snap.ds.G.NumEdges(), 1))
		if st.Records < s.cfg.CheckpointRecords &&
			st.Bytes < s.cfg.CheckpointBytes &&
			delta/edges < s.cfg.CheckpointRatio {
			return
		}
	}
	if snap.walSeq <= st.BaseSeq && !force {
		return // nothing new since the last checkpoint
	}
	if err := s.CheckpointNow(); err != nil {
		s.log.Error("wal checkpoint failed", "err", err)
	}
}

// CheckpointNow synchronously exports the live snapshot as the WAL
// checkpoint artifact (dataset embedded, epoch and sequence stamped) and
// truncates the log through it. The background checkpointer calls this
// when a threshold trips; tests and operators may call it directly.
func (s *Server) CheckpointNow() error {
	if s.walLog == nil {
		return fmt.Errorf("serve: no WAL configured")
	}
	snap := s.current()
	if snap.pipe == nil {
		return fmt.Errorf("serve: snapshot %d is immutable (no raw dataset); cannot checkpoint", snap.version)
	}
	t0 := time.Now()
	ex, err := snap.res.Export()
	if err != nil {
		return fmt.Errorf("serve: checkpoint export: %w", err)
	}
	art, err := artifact.New(snap.ds.G, ex, snap.seed)
	if err != nil {
		return fmt.Errorf("serve: checkpoint export: %w", err)
	}
	if err := art.EmbedDataset(snap.ds); err != nil {
		return fmt.Errorf("serve: checkpoint export: %w", err)
	}
	art.StampWAL(snap.epoch, snap.walSeq)
	err = s.walLog.Checkpoint(snap.walSeq, func(tmpPath string) error {
		f, err := s.walFS.Create(tmpPath)
		if err != nil {
			return err
		}
		if err := art.Save(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		return err
	}
	s.walSinceCkpt.Store(0)
	st := s.walLog.Stats()
	s.log.Info("wal checkpoint written",
		"epoch", snap.epoch, "wal_seq", snap.walSeq,
		"log_records", st.Records, "log_bytes", st.Bytes,
		"seconds", time.Since(t0).Seconds())
	return nil
}

// WALStats is the /v1/stats "wal" section.
type WALStats struct {
	// Records / Bytes describe the live log file.
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`
	// Seq / BaseSeq frame the log: last assigned sequence and the
	// sequence the log starts after.
	Seq     uint64 `json:"seq"`
	BaseSeq uint64 `json:"base_seq"`
	// Replayed is how many records boot recovery replayed.
	Replayed int64 `json:"replayed"`
	// Checkpoints counts checkpoints written since boot.
	Checkpoints int64 `json:"checkpoints"`
	// LastFsyncMs is the duration of the most recent fsync.
	LastFsyncMs float64 `json:"last_fsync_ms"`
	// TruncatedBytes is the torn tail chopped off at boot (0 = clean).
	TruncatedBytes int64 `json:"truncated_bytes"`
	// SyncMode echoes the -wal-sync policy.
	SyncMode string `json:"sync_mode"`
}

// WALStats returns the durability counters; ok=false when the server runs
// without a WAL.
func (s *Server) WALStats() (WALStats, bool) {
	if s.walLog == nil {
		return WALStats{}, false
	}
	st := s.walLog.Stats()
	return WALStats{
		Records:        st.Records,
		Bytes:          st.Bytes,
		Seq:            st.Seq,
		BaseSeq:        st.BaseSeq,
		Replayed:       s.walReplayed.Load(),
		Checkpoints:    st.Checkpoints,
		LastFsyncMs:    st.LastFsyncMs,
		TruncatedBytes: st.TruncatedBytes,
		SyncMode:       s.cfg.WALSync.String(),
	}, true
}
