package main

import (
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/serve"
	"locec/internal/social"
	"locec/internal/testutil/trained"
	"locec/internal/wal"
)

// writeWAL creates a WAL directory with n appended batches and returns it.
func writeWAL(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	log, _, err := wal.Open(wal.OSFS{}, dir, wal.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		muts := []core.Mutation{{Kind: core.MutAdd, U: uint32(i), V: uint32(i + 100)}}
		if _, err := log.Append(muts); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestWalDumpExitCodes pins the fleet-tooling contract: exit 0 on a
// clean log, exit 1 when the log is truncated at a bad record — detected
// by status, not by parsing output.
func TestWalDumpExitCodes(t *testing.T) {
	dir := writeWAL(t, 3)
	if code := runWalDump([]string{"-dir", dir}); code != 0 {
		t.Fatalf("clean log: exit %d, want 0", code)
	}

	// Tear the tail: append garbage that cannot parse as a record.
	f, err := os.OpenFile(wal.LogPath(dir), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if code := runWalDump([]string{"-dir", dir}); code != 1 {
		t.Fatalf("torn log: exit %d, want 1", code)
	}
}

// TestWalReplayMatchesBootRecovery holds wal-replay to what it claims: on
// a WAL directory with a checkpoint and a burst of records, one of them
// poisoned, it writes exactly the state locec-serve boots into from the
// same directory. Every label, probability vector and ego must be ==, and
// the epoch and wal_seq stamps equal. wal-replay is told no detector: it
// must re-divide by the labelprop rule the checkpoint records.
func TestWalReplayMatchesBootRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := serve.Config{
		Artifact: trained.Artifact(t, 80, "labelprop", true).Path,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
		WALDir:   dir, ManualCheckpoints: true,
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointNow(); err != nil {
		s.Close()
		t.Fatal(err)
	}
	g := s.Dataset().G
	var absent [][2]graph.NodeID
	for v := graph.NodeID(1); len(absent) < 2; v++ {
		if !g.HasEdge(0, v) {
			absent = append(absent, [2]graph.NodeID{0, v})
		}
	}
	e := g.Edges()[0]
	batches := [][]core.Mutation{
		{{Kind: core.MutAdd, U: absent[0][0], V: absent[0][1], Label: social.Family, Revealed: true}},
		{{Kind: core.MutAdd, U: e.U, V: e.V, Label: social.Colleague}}, // poisoned: the edge exists
		{
			{Kind: core.MutRelabel, U: e.U, V: e.V, Label: social.Schoolmate, Revealed: true},
			{Kind: core.MutAdd, U: absent[1][0], V: absent[1][1], Label: social.Colleague},
		},
	}
	for i, b := range batches {
		if _, err := s.Mutate(b, true); (err != nil) != (i == 1) {
			s.Close()
			t.Fatalf("batch %d: err %v", i, err)
		}
	}
	s.Close()

	out := filepath.Join(t.TempDir(), "replayed.locec")
	if code := runWalReplay([]string{"-dir", dir, "-out", out}); code != 0 {
		t.Fatalf("wal-replay exit %d", code)
	}
	s2, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st, _ := s2.WALStats(); st.Replayed != int64(len(batches)) {
		t.Fatalf("boot replayed %d records, want %d", st.Replayed, len(batches))
	}
	// The booted state, stamped with its epoch and wal_seq, goes to disk
	// the way wal-replay's does: as a checkpoint artifact.
	if err := s2.CheckpointNow(); err != nil {
		t.Fatal(err)
	}

	load := func(path string) (artifact.Meta, *core.Export) {
		t.Helper()
		art, err := artifact.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := art.Export()
		if err != nil {
			t.Fatal(err)
		}
		return art.Meta(), ex
	}
	bootMeta, boot := load(wal.CheckpointPath(dir))
	replayMeta, replay := load(out)
	if replayMeta.Epoch != bootMeta.Epoch || replayMeta.WALSeq != bootMeta.WALSeq {
		t.Fatalf("wal-replay stamps epoch %d, wal_seq %d; boot recovery %d, %d",
			replayMeta.Epoch, replayMeta.WALSeq, bootMeta.Epoch, bootMeta.WALSeq)
	}
	if bootMeta.Epoch != 2 || bootMeta.WALSeq != 3 {
		t.Fatalf("boot recovery at epoch %d, wal_seq %d; want 2 applied records through seq 3", bootMeta.Epoch, bootMeta.WALSeq)
	}
	if replay.Edges.Len() != boot.Edges.Len() {
		t.Fatalf("wal-replay holds %d edges, boot recovery %d", replay.Edges.Len(), boot.Edges.Len())
	}
	for _, k := range boot.Edges.Keys() {
		bl, bp, _ := boot.Edges.Lookup(k)
		rl, rp, ok := replay.Edges.Lookup(k)
		if !ok || rl != bl || !reflect.DeepEqual(rp, bp) {
			t.Fatalf("edge %v: wal-replay %v %v, boot recovery %v %v", graph.EdgeFromKey(k), rl, rp, bl, bp)
		}
	}
	if !reflect.DeepEqual(replay.Egos, boot.Egos) {
		t.Fatal("wal-replay and boot recovery hold different egos")
	}
}
