package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"locec/internal/testutil/trained"
	"locec/internal/wal"
)

// bootStats is the part of GET /v1/stats a boot determines.
type bootStats struct {
	Snapshot SnapshotInfo `json:"snapshot"`
	Reloads  int64        `json:"reloads"`
	WAL      *WALStats    `json:"wal"`
}

// readBootStats reads GET /v1/stats from s.
func readBootStats(t *testing.T, s *Server) bootStats {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var st bootStats
	if resp := getJSON(t, ts, "/v1/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	return st
}

// logRecords boots cfg, logs records one-edge batches, checkpointing
// after the first ckptAfter of them when ckptAfter > 0, and closes: the
// WAL directory a restart of cfg then boots from.
func logRecords(t *testing.T, cfg Config, records, ckptAfter int) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, p := range absentPairs(s, records) {
		if i == ckptAfter && ckptAfter > 0 {
			if err := s.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Mutate(addBatch(p, i), true); err != nil {
			t.Fatal(err)
		}
	}
	if ckptAfter == records && ckptAfter > 0 {
		if err := s.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBootCounters pins what /v1/stats reports right after each way New
// boots — from an artifact, from a WAL directory without a checkpoint
// (artifact base) and from a WAL checkpoint, each WAL boot with and
// without records to replay. Every boot publishes one
// snapshot: version 1, or 2 when records were replayed onto the base;
// the epoch is the base's plus the replayed records; and no boot counts
// as a reload.
func TestBootCounters(t *testing.T) {
	trainOnly := filepath.Join(t.TempDir(), "train-only.locec")
	exportToFile(t, testServer(t), trainOnly)

	for _, c := range []struct {
		name string
		// cfg returns the boot configuration, its WAL directory prepared.
		cfg                      func(t *testing.T) Config
		version, epoch, replayed int64
		mutable                  bool
	}{
		{"train-only artifact", func(t *testing.T) Config {
			return Config{Artifact: trainOnly, Logger: discardLogger()}
		}, 1, 0, -1, false},
		{"mutable artifact", func(t *testing.T) Config {
			return Config{Artifact: mutableArtifact(t), Logger: discardLogger()}
		}, 1, 0, -1, true},
		{"wal, artifact base, empty log", func(t *testing.T) Config {
			return walConfig(t, t.TempDir(), nil)
		}, 1, 0, 0, true},
		{"wal, artifact base, 2 records", func(t *testing.T) Config {
			cfg := walConfig(t, t.TempDir(), nil)
			logRecords(t, cfg, 2, 0)
			return cfg
		}, 2, 2, 2, true},
		{"wal checkpoint, no records after it", func(t *testing.T) Config {
			cfg := walConfig(t, t.TempDir(), nil)
			logRecords(t, cfg, 2, 2)
			return cfg
		}, 1, 2, 0, true},
		{"wal checkpoint, 1 record after it", func(t *testing.T) Config {
			cfg := walConfig(t, t.TempDir(), nil)
			logRecords(t, cfg, 3, 2)
			return cfg
		}, 2, 3, 1, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(c.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			st := readBootStats(t, s)
			replayed := int64(-1) // no WAL section
			if st.WAL != nil {
				replayed = st.WAL.Replayed
			}
			got := fmt.Sprintf("version %d, epoch %d, reloads %d, replayed %d, mutable %v",
				st.Snapshot.Version, st.Snapshot.Epoch, st.Reloads, replayed, st.Snapshot.Mutable)
			want := fmt.Sprintf("version %d, epoch %d, reloads 0, replayed %d, mutable %v",
				c.version, c.epoch, c.replayed, c.mutable)
			if got != want {
				t.Fatalf("after boot: %s\nwant          %s", got, want)
			}
		})
	}
}

// TestImmutableReloadRefusedWithWAL: the checkpointer cannot export a
// snapshot without its raw dataset, so a WAL server that published a
// train-only artifact would never checkpoint it, and a restart would bring
// back the state it replaced. POST /v1/reload of one answers 409 and
// publishes nothing: the live snapshot and the version sequence carry on,
// and a restart replays every logged mutation onto the same base.
func TestImmutableReloadRefusedWithWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := New(walConfig(t, dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	pairs := absentPairs(s, 2)
	if _, err := s.Mutate(addBatch(pairs[0], 0), true); err != nil {
		t.Fatal(err)
	}
	trainOnly := trained.Artifact(t, 90, "labelprop", false).Path

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/reload", "application/json",
		strings.NewReader(fmt.Sprintf(`{"artifact":%q}`, trainOnly)))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&doc)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("reload of a train-only artifact on a WAL server: status %d (%s), want 409", resp.StatusCode, doc.Error)
	}
	st := readBootStats(t, s)
	if st.Snapshot.Nodes != 80 || !st.Snapshot.Mutable || st.Snapshot.Version != 2 || st.Reloads != 0 {
		t.Fatalf("after the refused reload: %+v, reloads %d; want the 80-node mutable version 2, no reload", st.Snapshot, st.Reloads)
	}
	receipt, err := s.Mutate(addBatch(pairs[1], 1), true)
	if err != nil {
		t.Fatal(err)
	}
	if receipt.Snapshot.Version != 3 {
		t.Fatalf("the epoch after the refused reload published version %d, want 3", receipt.Snapshot.Version)
	}
	s.Close()

	s2, err := New(walConfig(t, dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	if st := readBootStats(t, s2); st.Snapshot.Nodes != 80 || !st.Snapshot.Mutable || st.WAL.Replayed != 2 {
		t.Fatalf("restart: %+v, wal %+v; want the 80-node mutable state with both records replayed", st.Snapshot, st.WAL)
	}
	for _, p := range pairs {
		if !s2.current().ds.G.HasEdge(p[0], p[1]) {
			t.Fatalf("restart lost the logged edge {%d,%d}", p[0], p[1])
		}
	}
}

// TestReloadCheckpointsBeforeItAnswers: a WAL server's reload is durable
// once ReloadArtifact returns. Killed at that instant, the server boots
// the reloaded state, not the previous base with the log replayed onto it.
func TestReloadCheckpointsBeforeItAnswers(t *testing.T) {
	fsys := wal.NewMemFS()
	s, err := New(walConfig(t, "wal", fsys))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mutate(addBatch(absentPairs(s, 1)[0], 0), true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReloadArtifact(trained.Artifact(t, 90, "labelprop", true).Path); err != nil {
		t.Fatal(err)
	}
	fsys.FailAfter(1) // killed: nothing after the answer reaches the disk
	s.Close()
	fsys.Crash()
	fsys.FailAfter(0)
	s2, err := New(walConfig(t, "wal", fsys))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	assertStateEqual(t, s2.current(), s.current(), "rebooted vs the acknowledged reload")
}

// TestBootDividesAsTrained: a server booted from a labelprop-trained,
// dataset-embedded artifact with no Detector configured re-divides dirty
// egos by the rule the artifact records. After one mutation its egos and
// predictions are == to RunFrozen under the training pipeline. A Detector
// that contradicts the artifact is refused, at boot and at reload.
func TestBootDividesAsTrained(t *testing.T) {
	ref := trainedServer(t).current()

	s, err := New(Config{Artifact: mutableArtifact(t), Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if _, err := s.Mutate(addBatch(absentPairs(s, 1)[0], 0), true); err != nil {
		t.Fatal(err)
	}
	got := s.current()
	want, err := ref.pipe.RunFrozen(got.ds, ref.res)
	if err != nil {
		t.Fatal(err)
	}
	for u, w := range want.Egos {
		g := got.res.Egos[u]
		if !slices.Equal(g.Members, w.Members) || !slices.Equal(g.CommIdx, w.CommIdx) || !slices.Equal(g.Tightness, w.Tightness) {
			t.Fatalf("ego %d: the booted server divides %v, the training pipeline %v", u, g.CommIdx, w.CommIdx)
		}
	}
	assertStateEqual(t, got, &snapshot{ds: got.ds, res: want}, "booted server vs RunFrozen")

	if _, err := New(Config{Artifact: mutableArtifact(t), Detector: "clauset", Logger: discardLogger()}); err == nil {
		t.Fatal("a clauset server booted from a labelprop artifact")
	}
	c, err := New(Config{Artifact: trained.Artifact(t, 80, "clauset", true).Path, Detector: "clauset", Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.ReloadArtifact(mutableArtifact(t)); err == nil {
		t.Fatal("a clauset server reloaded a labelprop artifact")
	}
}
