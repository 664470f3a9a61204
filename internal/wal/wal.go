// Package wal is the durable mutation log behind locec-serve's
// POST /v1/mutations path. Every accepted batch is appended — length-
// prefixed and CRC-32-checksummed, the same integrity idiom as the
// .locec artifact store — before it is applied in memory, so a crashed
// process recovers by loading the last checkpoint artifact and replaying
// the log's surviving suffix.
//
// Durability is tiered by SyncMode: fsync per record (always), one fsync
// per coalesced burst (batch, the group-commit default), or never (none —
// the page cache is the only durability). A background checkpointer
// (owned by the serving layer) periodically exports a snapshot artifact
// and truncates the log through Checkpoint.
//
// All file I/O goes through the FS seam so the crash-injection harness
// can kill the process at every write/sync/rename boundary and prove
// recovery never observes a torn state.
package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"time"

	"locec/internal/core"
)

// Sentinel errors, comparable with errors.Is.
var (
	// ErrBadMagic: the file does not start with the WAL magic.
	ErrBadMagic = errors.New("not a locec WAL file")
	// ErrVersion: the log was written by a newer format than this binary.
	ErrVersion = errors.New("unsupported WAL format version")
	// ErrTruncated: the file is shorter than its own framing promises.
	ErrTruncated = errors.New("truncated WAL file")
	// ErrClosed: the log was already closed.
	ErrClosed = errors.New("wal: log closed")
)

// SyncMode picks how eagerly appended records reach stable storage.
type SyncMode int

const (
	// SyncBatch fsyncs once per coalesced burst (when the serving layer
	// calls Sync after appending the burst's records). The group-commit
	// default: an fsync is amortized over every batch that arrived while
	// the previous epoch was being applied.
	SyncBatch SyncMode = iota
	// SyncAlways fsyncs after every single Append. Strongest durability,
	// one fsync per batch.
	SyncAlways
	// SyncNone never fsyncs; the OS page cache is the only durability.
	// An orderly Close still flushes, so only a hard crash can lose
	// acknowledged batches.
	SyncNone
)

// String renders the flag spelling.
func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return "batch"
	}
}

// ParseSyncMode parses the -wal-sync flag value.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch", "":
		return SyncBatch, nil
	case "none":
		return SyncNone, nil
	}
	return SyncBatch, fmt.Errorf("wal: unknown sync mode %q (want always, batch or none)", s)
}

// LogName / CheckpointName are the fixed file names inside a WAL
// directory.
const (
	LogName        = "wal.log"
	CheckpointName = "checkpoint.locec"
)

// LogPath returns the log file path inside dir.
func LogPath(dir string) string { return filepath.Join(dir, LogName) }

// CheckpointPath returns the checkpoint artifact path inside dir.
func CheckpointPath(dir string) string { return filepath.Join(dir, CheckpointName) }

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	// Records / Bytes describe the live log file (post-recovery,
	// post-truncation).
	Records int
	Bytes   int64
	// Seq is the last assigned sequence number; BaseSeq the sequence the
	// log's header starts after (everything <= BaseSeq lives in some
	// checkpoint).
	Seq     uint64
	BaseSeq uint64
	// Checkpoints counts successful Checkpoint calls on this handle.
	Checkpoints int64
	// LastFsyncMs is the duration of the most recent fsync.
	LastFsyncMs float64
	// RecoveredRecords / TruncatedBytes describe what Open found: intact
	// records scanned, and torn tail bytes chopped off.
	RecoveredRecords int
	TruncatedBytes   int64
}

// Log is an append-only mutation log in one directory. Methods are safe
// for concurrent use, though the serving layer serializes appends through
// its single applier goroutine anyway.
type Log struct {
	fsys FS
	dir  string
	mode SyncMode

	ckptMu      sync.Mutex // serializes Checkpoint; mu guards the rest
	mu          sync.Mutex
	file        File
	seq         uint64
	baseSeq     uint64
	records     int
	bytes       int64
	checkpoints int64
	lastFsyncNs int64
	recovered   int
	truncated   int64
	closed      bool
}

// Open recovers the log in dir — creating an empty one when none exists —
// and returns the handle plus every intact batch found, in sequence
// order. A torn or corrupt tail is truncated away (rewrite + atomic
// rename) before the log is reopened for appending; the number of bytes
// dropped is reported in Stats.TruncatedBytes. Callers replay the
// returned batches atop their checkpoint, filtering out any batch whose
// Seq the checkpoint already covers.
func Open(fsys FS, dir string, mode SyncMode) (*Log, []Batch, error) {
	l := &Log{fsys: fsys, dir: dir, mode: mode}
	path := LogPath(dir)
	data, err := fsys.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if err := l.writeFresh(0, nil); err != nil {
			return nil, nil, err
		}
		return l, nil, nil
	case err != nil:
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}

	if len(data) < headerSize {
		// Even the header is torn — the log never durably existed.
		// Start over; there is nothing to lose.
		if err := l.writeFresh(0, nil); err != nil {
			return nil, nil, err
		}
		l.truncated = int64(len(data)) // writeFresh resets counters; restore
		return l, nil, nil
	}
	baseSeq, err := decodeHeader(data)
	if err != nil {
		// A bad magic or a future version is not a torn tail; refuse to
		// destroy what we cannot read.
		return nil, nil, err
	}
	batches, goodLen := scanRecords(data, baseSeq)
	l.baseSeq = baseSeq
	l.seq = baseSeq
	if n := len(batches); n > 0 {
		l.seq = batches[n-1].Seq
	}
	l.recovered = len(batches)
	l.truncated = int64(len(data) - goodLen)
	if l.truncated > 0 {
		// Chop the torn tail by rewriting the valid prefix and renaming it
		// into place, so the next crash cannot land behind garbage.
		if err := l.writeFresh(baseSeq, batches); err != nil {
			return nil, nil, err
		}
		l.recovered = len(batches) // writeFresh resets counters; restore
		l.truncated = int64(len(data) - goodLen)
		return l, batches, nil
	}
	l.records = len(batches)
	l.bytes = int64(len(data))
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open append: %w", err)
	}
	l.file = f
	return l, batches, nil
}

// Scan reads the log in dir without repairing or locking it: wal-dump's
// view. It returns the header base sequence, every intact batch and the
// torn tail length.
func Scan(fsys FS, dir string) (baseSeq uint64, batches []Batch, truncated int64, err error) {
	data, err := fsys.ReadFile(LogPath(dir))
	if err != nil {
		return 0, nil, 0, fmt.Errorf("wal: scan: %w", err)
	}
	baseSeq, err = decodeHeader(data)
	if err != nil {
		return 0, nil, 0, err
	}
	batches, goodLen := scanRecords(data, baseSeq)
	return baseSeq, batches, int64(len(data) - goodLen), nil
}

// writeFresh rewrites the log as header+records via tmp+rename+dir-sync
// and leaves l.file open for appending. Callers hold mu or own l
// exclusively.
func (l *Log) writeFresh(baseSeq uint64, batches []Batch) error {
	path := LogPath(l.dir)
	tmp := path + ".tmp"
	f, err := l.fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: create: %w", err)
	}
	buf := encodeHeader(baseSeq)
	for _, b := range batches {
		rec, err := encodeRecord(b.Seq, b.Muts)
		if err != nil {
			_ = f.Close()
			return err
		}
		buf = append(buf, rec...)
	}
	if _, err := f.Write(buf); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: write: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	if err := l.fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: rename: %w", err)
	}
	if err := l.fsys.SyncDir(l.dir); err != nil {
		return err
	}
	app, err := l.fsys.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("wal: open append: %w", err)
	}
	if l.file != nil {
		_ = l.file.Close()
	}
	l.file = app
	l.baseSeq = baseSeq
	l.seq = baseSeq
	if n := len(batches); n > 0 {
		l.seq = batches[n-1].Seq
	}
	l.records = len(batches)
	l.bytes = int64(len(buf))
	l.recovered = 0
	l.truncated = 0
	return nil
}

// Append assigns the next sequence number, writes the record, and — in
// SyncAlways mode — fsyncs before returning. The batch is durable once
// Append (always) or the burst's Sync (batch) returns; until then a crash
// may lose it, which is exactly why the serving layer appends *before*
// applying and only acknowledges afterwards.
func (l *Log) Append(muts []core.Mutation) (uint64, error) {
	if len(muts) == 0 {
		return 0, fmt.Errorf("wal: empty batch")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	seq := l.seq + 1
	rec, err := encodeRecord(seq, muts)
	if err != nil {
		return 0, err
	}
	if _, err := l.file.Write(rec); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.seq = seq
	l.records++
	l.bytes += int64(len(rec))
	if l.mode == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// Sync forces appended records to stable storage: the group-commit point
// in SyncBatch mode (one call per coalesced burst). A no-op in SyncNone.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.mode == SyncNone {
		return nil
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	start := time.Now()
	if err := l.file.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.lastFsyncNs = time.Since(start).Nanoseconds()
	return nil
}

// Checkpoint makes everything up to and including base durable in a
// snapshot artifact and truncates the log down to the records after base.
// writeSnapshot must write the checkpoint (stamped with WALSeq=base) to
// the temporary path it is given; Checkpoint then publishes it atomically
// and rewrites the log.
//
// Crash ordering: the checkpoint rename lands (and is dir-synced) BEFORE
// the log is rewritten. A crash between the two leaves an old log whose
// early records the new checkpoint already covers — harmless, because
// recovery filters replayed batches by the checkpoint's WALSeq. The
// reverse order could lose records forever; this order can only replay
// none twice.
//
// Appends do not wait for the snapshot: the log lock is released while
// writeSnapshot runs, and records appended meanwhile (seq > base) survive
// the rewrite. Concurrent Checkpoint calls run one at a time; a Close
// during the write makes Checkpoint return ErrClosed without publishing.
func (l *Log) Checkpoint(base uint64, writeSnapshot func(tmpPath string) error) error {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	l.mu.Lock()
	var err error
	switch {
	case l.closed:
		err = ErrClosed
	case base > l.seq:
		err = fmt.Errorf("wal: checkpoint base %d is beyond the last appended record %d", base, l.seq)
	case l.mode != SyncNone:
		err = l.syncLocked() // the snapshot must not claim records the disk may not have
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}
	ckpt := CheckpointPath(l.dir)
	tmp := ckpt + ".tmp"
	if err := writeSnapshot(tmp); err != nil {
		return fmt.Errorf("wal: checkpoint snapshot: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.fsys.Rename(tmp, ckpt); err != nil {
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	if err := l.fsys.SyncDir(l.dir); err != nil {
		return err
	}
	// Re-scan our own file for the surviving suffix (seq > base, records
	// appended during the write included) instead of holding every batch
	// in memory.
	data, err := l.fsys.ReadFile(LogPath(l.dir))
	if err != nil {
		return fmt.Errorf("wal: checkpoint rescan: %w", err)
	}
	hdrBase, err := decodeHeader(data)
	if err != nil {
		return err
	}
	all, _ := scanRecords(data, hdrBase)
	keep := all[:0]
	for _, b := range all {
		if b.Seq > base {
			keep = append(keep, b)
		}
	}
	if err := l.writeFresh(base, keep); err != nil {
		return err
	}
	l.checkpoints++
	return nil
}

// Stats returns the current counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Records:          l.records,
		Bytes:            l.bytes,
		Seq:              l.seq,
		BaseSeq:          l.baseSeq,
		Checkpoints:      l.checkpoints,
		LastFsyncMs:      float64(l.lastFsyncNs) / 1e6,
		RecoveredRecords: l.recovered,
		TruncatedBytes:   l.truncated,
	}
}

// Seq returns the last assigned sequence number.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Close flushes (even in SyncNone — an orderly stop keeps its promises)
// and closes the log file. Further calls return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	var firstErr error
	if l.file != nil {
		if err := l.file.Sync(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("wal: close fsync: %w", err)
		}
		if err := l.file.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("wal: close: %w", err)
		}
	}
	return firstErr
}
