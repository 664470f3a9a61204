package serve

// The durability layer: recovery-on-boot, the background checkpointer and
// the WAL stats surface. The log itself (format, crash-injection seam,
// truncate-at-first-bad-record recovery) lives in internal/wal; this file
// is the serving-side policy around it.
//
// Recovery contract: state after a crash = the checkpoint artifact (or
// Config.Artifact when none exists yet) plus a replay of every intact log
// record the checkpoint does not cover (wal.After: seq > the checkpoint's
// WALSeq).
// The records to replay are one burst under the live applier's rule
// (core.Pipeline.ApplyBurst): all of them as one epoch, or record by
// record skipping a rejected one. A record is rejected exactly when it was
// rejected live, and an epoch's output depends only on the dataset it ends
// on (VerifyIncremental, bit for bit), so replayed state ≡ the state the
// crashed process had acknowledged.

import (
	"errors"
	"fmt"
	"io/fs"
	"time"

	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/wal"
)

// readCheckpoint restores the WAL directory's checkpoint as boot's base
// state, stamped with the mutation epoch and log sequence it covers; nil
// when the directory holds none (first boot, or a crash before the first
// checkpoint: boot then restores Config.Artifact, the base the log's
// records were applied to).
func (s *Server) readCheckpoint(t0 time.Time) (*snapshot, error) {
	data, err := s.walFS.ReadFile(wal.CheckpointPath(s.cfg.WALDir))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: wal checkpoint: %w", err)
	}
	// Parsed in place: ReadFile hands over a buffer the caller owns
	// (MemFS copies), so the checkpoint is read once, not twice.
	art, err := artifact.LoadBytes(data)
	if err != nil {
		return nil, fmt.Errorf("serve: wal checkpoint: %w", err)
	}
	meta := art.Meta()
	s.epochs.Store(meta.Epoch)
	snap, err := s.restore(nil, art, t0)
	if err != nil {
		return nil, fmt.Errorf("serve: wal checkpoint: %w", err)
	}
	snap.walSeq = meta.WALSeq
	s.log.Info("wal checkpoint restored",
		"epoch", meta.Epoch, "wal_seq", meta.WALSeq,
		"nodes", snap.ds.G.NumNodes(), "edges", snap.ds.G.NumEdges(),
		"mutable", snap.pipe != nil)
	return snap, nil
}

// recoverWAL opens the log and replays onto base the records it does not
// cover (wal.After), returning the recovered state unpublished.
func (s *Server) recoverWAL(base *snapshot, t0 time.Time) (*snapshot, error) {
	l, batches, err := wal.Open(s.walFS, s.cfg.WALDir, s.cfg.WALSync)
	if err != nil {
		return nil, err
	}
	s.walLog = l
	if st := l.Stats(); st.TruncatedBytes > 0 {
		s.log.Warn("wal recovery truncated a torn tail",
			"bytes", st.TruncatedBytes, "surviving_records", st.RecoveredRecords)
	}
	replay := wal.After(batches, base.walSeq)
	if len(replay) == 0 {
		return base, nil
	}
	if base.pipe == nil {
		return nil, fmt.Errorf("serve: wal has %d records to replay but the boot snapshot is immutable (artifact without an embedded dataset?)", len(replay))
	}
	muts := make([][]core.Mutation, len(replay))
	for i, b := range replay {
		muts[i] = b.Muts
	}
	ds, res, burst := base.pipe.ApplyBurst(base.ds, base.res, muts)
	for i, err := range burst.Errs {
		// Deterministic apply: a record rejected here was rejected (or
		// would have been) identically in the crashed process — its
		// effects were never part of any acknowledged state.
		if err != nil {
			s.log.Warn("wal replay: batch rejected", "seq", replay[i].Seq, "mutations", len(replay[i].Muts), "err", err)
		}
	}
	s.epochs.Add(int64(burst.Applied))
	snap := s.newSnapshot(base, base.seed, ds, res, base.pipe, time.Since(t0))
	snap.walSeq = replay[len(replay)-1].Seq
	snap.applied += burst.Total.Duration
	s.walReplayed.Store(int64(len(replay)))
	s.log.Info("wal replayed",
		"records", len(replay), "applied", burst.Applied,
		"epoch", snap.epoch, "wal_seq", snap.walSeq,
		"seconds", time.Since(t0).Seconds())
	return snap, nil
}

// kickCheckpoint nudges the background checkpointer (non-blocking; a
// pending nudge coalesces). Without a WAL, and under
// Config.ManualCheckpoints, it does nothing.
func (s *Server) kickCheckpoint() {
	if s.ckptCh == nil || s.cfg.ManualCheckpoints {
		return
	}
	select {
	case s.ckptCh <- struct{}{}:
	default:
	}
}

// checkpointer is the background goroutine that turns apply time into
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

// maybeCheckpoint checkpoints when it pays: once the apply time since the
// last checkpoint reaches that checkpoint's own cost, so boot replays about
// one Save's worth and checkpoint CPU stays below apply CPU. An immutable
// snapshot never does.
func (s *Server) maybeCheckpoint() {
	snap := s.current()
	if snap.pipe == nil {
		return // immutable snapshot: nothing mutates, nothing to checkpoint
	}
	if s.sinceCheckpoint(snap) < time.Duration(s.ckptCost.Load()) ||
		snap.walSeq <= s.walLog.Stats().BaseSeq {
		return
	}
	if err := s.CheckpointNow(); err != nil {
		s.log.Error("wal checkpoint failed", "err", err)
	}
}

// sinceCheckpoint is snap's apply time the last checkpoint does not cover,
// epochs published during that Save and records replayed at boot included.
func (s *Server) sinceCheckpoint(snap *snapshot) time.Duration {
	return snap.applied - time.Duration(s.ckptApplied.Load())
}

// CheckpointNow synchronously writes the live snapshot as the WAL
// checkpoint. The background checkpointer calls this when the cost rule
// trips; tests and operators may call it directly.
func (s *Server) CheckpointNow() error {
	if s.walLog == nil {
		return fmt.Errorf("serve: no WAL configured")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.checkpoint(s.current())
}

// publishDurable publishes a reloaded snapshot on a WAL server once a
// checkpoint covers it. The fresh state supersedes every logged record: it
// is stamped with the log's sequence, and the checkpoint truncates them
// away instead of leaving them to replay onto the wrong graph. A crash
// before the reload is acknowledged therefore boots the state it would
// have replaced, never a mix. An immutable snapshot is refused: no
// checkpoint can cover it, so a restart would bring back the state it
// replaced. Callers hold reloadMu, so no epoch is logged meanwhile.
func (s *Server) publishDurable(snap *snapshot, path string) error {
	if snap.pipe == nil {
		return fmt.Errorf("%s: %w", path, snap.immutable())
	}
	snap.walSeq = s.walLog.Seq()
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if err := s.checkpoint(snap); err != nil {
		return err
	}
	s.publish(snap)
	return nil
}

// checkpoint exports snap as the WAL checkpoint artifact (dataset
// embedded, epoch and sequence stamped), truncates the log through it and
// makes its duration the cost the next automatic checkpoint must be worth.
// Callers hold ckptMu.
func (s *Server) checkpoint(snap *snapshot) error {
	if snap.pipe == nil {
		return snap.immutable()
	}
	t0 := time.Now()
	art, err := snap.export()
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
	cost := time.Since(t0)
	s.ckptApplied.Store(int64(snap.applied))
	s.ckptCost.Store(int64(cost))
	st := s.walLog.Stats()
	s.log.Info("wal checkpoint written",
		"epoch", snap.epoch, "wal_seq", snap.walSeq,
		"log_records", st.Records, "log_bytes", st.Bytes,
		"seconds", cost.Seconds())
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
	// The checkpoint rule's operands: apply time since the last
	// checkpoint, and its duration (the boot's build time before the first).
	ApplySinceCheckpointMs float64 `json:"apply_since_checkpoint_ms"`
	LastCheckpointMs       float64 `json:"last_checkpoint_ms"`
}

// WALStats returns the durability counters; ok=false when the server runs
// without a WAL.
func (s *Server) WALStats() (WALStats, bool) {
	if s.walLog == nil {
		return WALStats{}, false
	}
	st := s.walLog.Stats()
	return WALStats{
		Records:                st.Records,
		Bytes:                  st.Bytes,
		Seq:                    st.Seq,
		BaseSeq:                st.BaseSeq,
		Replayed:               s.walReplayed.Load(),
		Checkpoints:            st.Checkpoints,
		LastFsyncMs:            st.LastFsyncMs,
		TruncatedBytes:         st.TruncatedBytes,
		SyncMode:               s.cfg.WALSync.String(),
		ApplySinceCheckpointMs: float64(s.sinceCheckpoint(s.current())) / 1e6,
		LastCheckpointMs:       float64(s.ckptCost.Load()) / 1e6,
	}, true
}
