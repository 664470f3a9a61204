package main

import (
	"os"
	"testing"

	"locec"
	"locec/internal/core"
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

// TestWalReplayDividesAsTrained pins -gn-patience's default to the patience
// `locec train` and `locec run` divide under, the zero value of the config
// they build: a replayed epoch must re-divide dirty egos by the same
// stopping rule as the egos beside them.
func TestWalReplayDividesAsTrained(t *testing.T) {
	fs, f := walReplayFlags()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if want := (locec.Config{}).GNPatience; f.patience != want {
		t.Fatalf("-gn-patience defaults to %d, training divides with %d", f.patience, want)
	}
}
