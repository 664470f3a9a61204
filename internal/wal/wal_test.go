package wal

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/social"
)

// batchFixture builds a deterministic mutation batch; i varies the shape
// so consecutive batches are distinguishable.
func batchFixture(i int) []core.Mutation {
	muts := []core.Mutation{
		{Kind: core.MutAdd, U: graph.NodeID(i), V: graph.NodeID(i + 1),
			Label: social.Colleague, Revealed: true,
			Interactions: []float64{float64(i), 1.5, math.Pi}},
		{Kind: core.MutRelabel, U: graph.NodeID(i + 2), V: graph.NodeID(i + 3),
			Label: social.Family, Revealed: true},
	}
	if i%2 == 0 {
		muts = append(muts, core.Mutation{Kind: core.MutRemove,
			U: graph.NodeID(i + 4), V: graph.NodeID(i + 5), Label: social.Unlabeled})
	}
	return muts
}

// mustAppend appends n fixture batches and returns them as Batches.
func mustAppend(t *testing.T, l *Log, n int) []Batch {
	t.Helper()
	var out []Batch
	for i := 0; i < n; i++ {
		muts := batchFixture(i)
		seq, err := l.Append(muts)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		out = append(out, Batch{Seq: seq, Muts: muts})
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	return out
}

// assertBatches compares recovered batches against expectations exactly.
func assertBatches(t *testing.T, got, want []Batch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d batches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq {
			t.Fatalf("batch %d: seq %d, want %d", i, got[i].Seq, want[i].Seq)
		}
		if !reflect.DeepEqual(got[i].Muts, want[i].Muts) {
			t.Fatalf("batch %d (seq %d): mutations diverge:\n got %+v\nwant %+v",
				i, got[i].Seq, got[i].Muts, want[i].Muts)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	fs := NewMemFS()
	l, replayed, err := Open(fs, "wal", SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh log replayed %d batches", len(replayed))
	}
	want := mustAppend(t, l, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got, err := Open(fs, "wal", SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	assertBatches(t, got, want)
	st := l2.Stats()
	if st.Records != 5 || st.Seq != 5 || st.BaseSeq != 0 {
		t.Fatalf("stats after reopen: %+v", st)
	}
	// Appends continue the sequence.
	seq, err := l2.Append(batchFixture(9))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("next seq %d, want 6", seq)
	}
}

func TestScanReadOnly(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, "wal", SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	want := mustAppend(t, l, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	base, got, truncated, err := Scan(fs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if base != 0 || truncated != 0 {
		t.Fatalf("base %d truncated %d, want 0/0", base, truncated)
	}
	assertBatches(t, got, want)
}

func TestTornTailTruncated(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, "wal", SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	want := mustAppend(t, l, 3)
	_ = l.Close()

	// Corrupt the tail: chop half of the last record off.
	data, err := fs.ReadFile(LogPath("wal"))
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-7]
	f, err := fs.Create(LogPath("wal"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	l2, got, err := Open(fs, "wal", SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	assertBatches(t, got, want[:2])
	st := l2.Stats()
	if st.TruncatedBytes == 0 {
		t.Fatal("expected a truncated tail to be reported")
	}
	// The repair must be durable: the rewritten file scans clean.
	_, again, truncated, err := Scan(fs, "wal")
	if err != nil || truncated != 0 {
		t.Fatalf("post-repair scan: truncated=%d err=%v", truncated, err)
	}
	assertBatches(t, again, want[:2])
}

func TestBitFlipStopsScan(t *testing.T) {
	fs := NewMemFS()
	l, _, _ := Open(fs, "wal", SyncAlways)
	want := mustAppend(t, l, 4)
	_ = l.Close()
	data, _ := fs.ReadFile(LogPath("wal"))

	// Flip one byte inside the second record's payload: records 3 and 4
	// are intact on disk but untrustworthy (the writer's story broke), so
	// recovery keeps only record 1.
	rec1 := len(encodeHeader(0))
	enc1, _ := encodeRecord(want[0].Seq, want[0].Muts)
	off := rec1 + len(enc1) + recordHeaderSize + 3
	data[off] ^= 0x40
	f, _ := fs.Create(LogPath("wal"))
	_, _ = f.Write(data)
	_ = f.Close()

	_, got, err := Open(fs, "wal", SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	assertBatches(t, got, want[:1])
}

func TestCheckpointRetainsSuffix(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, "wal", SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	want := mustAppend(t, l, 6)

	var snapshotted []byte
	err = l.Checkpoint(want[3].Seq, func(tmp string) error {
		f, err := fs.Create(tmp)
		if err != nil {
			return err
		}
		snapshotted = []byte("snapshot-through-4")
		if _, err := f.Write(snapshotted); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}

	// The checkpoint landed at its final path.
	ck, err := fs.ReadFile(CheckpointPath("wal"))
	if err != nil || string(ck) != string(snapshotted) {
		t.Fatalf("checkpoint file: %q, %v", ck, err)
	}
	// The log kept exactly the records after the base.
	st := l.Stats()
	if st.Records != 2 || st.BaseSeq != want[3].Seq || st.Checkpoints != 1 {
		t.Fatalf("post-checkpoint stats: %+v", st)
	}
	// Appends keep extending the old sequence.
	seq, err := l.Append(batchFixture(7))
	if err != nil || seq != 7 {
		t.Fatalf("append after checkpoint: seq=%d err=%v", seq, err)
	}
	_ = l.Sync()
	_ = l.Close()

	_, got, err := Open(fs, "wal", SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Seq != want[4].Seq || got[2].Seq != 7 {
		t.Fatalf("recovered %d batches, seqs %v", len(got), got)
	}
}

// parkedCheckpoint starts Checkpoint(base) on its own goroutine with a
// snapshot writer that parks until release is closed, and returns once
// the writer is parked. The checkpoint's result arrives on done.
func parkedCheckpoint(t *testing.T, fs *MemFS, l *Log, base uint64) (release chan struct{}, done chan error) {
	t.Helper()
	parked := make(chan struct{})
	release, done = make(chan struct{}), make(chan error, 1)
	go func() {
		done <- l.Checkpoint(base, func(tmp string) error {
			close(parked)
			<-release
			f, err := fs.Create(tmp)
			if err != nil {
				return err
			}
			if _, err := f.Write([]byte("snapshot")); err != nil {
				return err
			}
			if err := f.Sync(); err != nil {
				return err
			}
			return f.Close()
		})
	}()
	<-parked
	return release, done
}

// TestCheckpointDoesNotBlockAppends: while a checkpoint's snapshot write
// is parked, an Append and a Sync from another goroutine complete, and the
// record they made durable (seq > base) survives the log rewrite.
func TestCheckpointDoesNotBlockAppends(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, "wal", SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	want := mustAppend(t, l, 3)
	release, done := parkedCheckpoint(t, fs, l, want[1].Seq)

	appended := make(chan error, 1)
	go func() {
		_, err := l.Append(batchFixture(3))
		if err == nil {
			err = l.Sync()
		}
		appended <- err
	}()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("Append+Sync blocked behind the checkpoint's snapshot write")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.BaseSeq != want[1].Seq || st.Records != 2 || st.Seq != 4 {
		t.Fatalf("post-checkpoint stats: %+v", st)
	}
	_ = l.Close()
	_, got, err := Open(fs, "wal", SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	assertBatches(t, got, []Batch{want[2], {Seq: 4, Muts: batchFixture(3)}})
}

// TestCheckpointCloseDuringWrite: a Close while the snapshot is being
// written makes Checkpoint return ErrClosed without publishing it.
func TestCheckpointCloseDuringWrite(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, "wal", SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	want := mustAppend(t, l, 2)
	release, done := parkedCheckpoint(t, fs, l, want[1].Seq)
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("Close blocked behind the checkpoint's snapshot write")
	}
	close(release)
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close = %v, want ErrClosed", err)
	}
	if _, err := fs.ReadFile(CheckpointPath("wal")); err == nil {
		t.Fatal("a checkpoint was published after Close")
	}
	_, got, err := Open(fs, "wal", SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	assertBatches(t, got, want)
}

func TestCheckpointBaseBeyondSeq(t *testing.T) {
	fs := NewMemFS()
	l, _, _ := Open(fs, "wal", SyncBatch)
	mustAppend(t, l, 2)
	if err := l.Checkpoint(99, func(string) error { return nil }); err == nil {
		t.Fatal("checkpoint beyond last seq must fail")
	}
}

func TestHeaderErrors(t *testing.T) {
	fs := NewMemFS()
	l, _, _ := Open(fs, "wal", SyncBatch)
	mustAppend(t, l, 1)
	_ = l.Close()
	data, _ := fs.ReadFile(LogPath("wal"))

	write := func(b []byte) {
		f, _ := fs.Create(LogPath("wal"))
		_, _ = f.Write(b)
		_ = f.Close()
	}

	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	write(bad)
	if _, _, err := Open(fs, "wal", SyncBatch); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}

	bad = append([]byte(nil), data...)
	bad[len(Magic)] = 0xFF
	write(bad)
	if _, _, err := Open(fs, "wal", SyncBatch); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: %v", err)
	}

	// A header torn mid-write is NOT a foreign file: the log never durably
	// existed, so recovery starts fresh instead of refusing.
	write(data[:headerSize-4])
	l2, got, err := Open(fs, "wal", SyncBatch)
	if err != nil || len(got) != 0 {
		t.Fatalf("torn header: got %d batches, err %v", len(got), err)
	}
	if st := l2.Stats(); st.TruncatedBytes != int64(headerSize-4) {
		t.Fatalf("torn header truncated bytes: %+v", st)
	}
}

func TestAppendValidation(t *testing.T) {
	fs := NewMemFS()
	l, _, _ := Open(fs, "wal", SyncNone)
	if _, err := l.Append(nil); err == nil {
		t.Fatal("empty batch must be rejected")
	}
	long := make([]float64, 300)
	if _, err := l.Append([]core.Mutation{{Kind: core.MutAdd, Interactions: long}}); err == nil {
		t.Fatal("oversized interaction vector must be rejected")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(batchFixture(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

func TestParseSyncMode(t *testing.T) {
	cases := map[string]SyncMode{"always": SyncAlways, "batch": SyncBatch, "": SyncBatch, "none": SyncNone}
	for in, want := range cases {
		got, err := ParseSyncMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncMode(%q) = %v, %v", in, got, err)
		}
		if in != "" && got.String() != in {
			t.Fatalf("String round trip: %q -> %q", in, got.String())
		}
	}
	if _, err := ParseSyncMode("sometimes"); err == nil {
		t.Fatal("unknown mode must error")
	}
}

func TestSyncNoneDurableOnlyOnClose(t *testing.T) {
	fs := NewMemFS()
	l, _, _ := Open(fs, "wal", SyncNone)
	want := mustAppend(t, l, 2) // Sync is a no-op in this mode

	fs.Crash()
	_, got, _, err := Scan(fs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("unsynced records survived a crash in SyncNone: %d", len(got))
	}

	// Rebuild and close in an orderly way: Close flushes even in SyncNone.
	fs = NewMemFS()
	l, _, _ = Open(fs, "wal", SyncNone)
	want = mustAppend(t, l, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	_, got, _, err = Scan(fs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	assertBatches(t, got, want)
}
