package serve

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/social"
	"locec/internal/wal"
)

// mutableArtifact trains the test network once per process and saves it
// WITH the embedded dataset, so every WAL test cold-starts in O(load)
// instead of O(train).
var (
	mutableArtOnce sync.Once
	mutableArtPath string
	mutableArtErr  error
)

func mutableArtifact(t testing.TB) string {
	t.Helper()
	mutableArtOnce.Do(func() {
		s, err := New(Config{
			Users: 80, Survey: 0.5, Seed: 7, Variant: "xgb",
			Rounds: 5, MaxDepth: 3, Detector: "labelprop",
			Logger: discardLogger(),
		})
		if err != nil {
			mutableArtErr = err
			return
		}
		defer s.Close()
		art, err := mutableSnapshot(s)
		if err != nil {
			mutableArtErr = err
			return
		}
		dir, err := os.MkdirTemp("", "locec-wal-test-")
		if err != nil {
			mutableArtErr = err
			return
		}
		mutableArtPath = filepath.Join(dir, "mutable.locec")
		mutableArtErr = art.SaveFile(mutableArtPath)
	})
	if mutableArtErr != nil {
		t.Fatal(mutableArtErr)
	}
	return mutableArtPath
}

// mutableSnapshot is s's live snapshot as an artifact with its dataset
// embedded: the shape of a WAL checkpoint.
func mutableSnapshot(s *Server) (*artifact.Artifact, error) {
	snap := s.current()
	ex, err := snap.res.Export()
	if err != nil {
		return nil, err
	}
	art, err := artifact.New(snap.ds.G, ex, snap.seed)
	if err != nil {
		return nil, err
	}
	return art, art.EmbedDataset(snap.ds)
}

// walConfig cold-starts from the shared mutable artifact with a WAL in
// dir. Checkpoint thresholds are sky-high so checkpoints happen only when
// a test calls CheckpointNow — the background checkpointer stays
// deterministic.
func walConfig(t testing.TB, dir string, fsys wal.FS) Config {
	return Config{
		Users: 80, Survey: 0.5, Seed: 7, Variant: "xgb",
		Rounds: 5, MaxDepth: 3, Detector: "labelprop",
		Logger:   discardLogger(),
		Artifact: mutableArtifact(t),

		WALDir:            dir,
		WALSync:           wal.SyncBatch,
		WALFS:             fsys,
		CheckpointRecords: 1 << 30,
		CheckpointBytes:   1 << 60,
		CheckpointRatio:   1e18,
	}
}

// absentPairs returns n distinct node pairs with no friendship in s's
// live snapshot, deterministically ordered.
func absentPairs(s *Server, n int) [][2]graph.NodeID {
	g := s.current().ds.G
	var out [][2]graph.NodeID
	nn := graph.NodeID(g.NumNodes())
	for u := graph.NodeID(0); u < nn && len(out) < n; u++ {
		for v := u + 1; v < nn && len(out) < n; v++ {
			if !g.HasEdge(u, v) {
				out = append(out, [2]graph.NodeID{u, v})
			}
		}
	}
	if len(out) < n {
		panic("graph too dense for test workload")
	}
	return out
}

// addBatch is one WAL-logged mutation batch: a single edge add.
func addBatch(p [2]graph.NodeID, i int) []core.Mutation {
	labels := []social.Label{social.Colleague, social.Family, social.Schoolmate}
	inter := make([]float64, social.NumInteractionDims)
	for d := range inter {
		inter[d] = float64(i+1) * float64(d+1) * 0.25
	}
	return []core.Mutation{{
		Kind: core.MutAdd, U: p[0], V: p[1],
		Label: labels[i%len(labels)], Revealed: true, Interactions: inter,
	}}
}

// assertStateEqual compares two snapshots' full classification state:
// identical graph shape, identical predicted labels, probabilities within
// tol. This is the "pre-batch or post-batch, never torn" oracle.
func assertStateEqual(t *testing.T, got, want *snapshot, tol float64, context string) {
	t.Helper()
	if got.ds.G.NumNodes() != want.ds.G.NumNodes() || got.ds.G.NumEdges() != want.ds.G.NumEdges() {
		t.Fatalf("%s: graph shape %d/%d, want %d/%d", context,
			got.ds.G.NumNodes(), got.ds.G.NumEdges(), want.ds.G.NumNodes(), want.ds.G.NumEdges())
	}
	if got.res.Edges.Len() != want.res.Edges.Len() {
		t.Fatalf("%s: %d predictions, want %d", context, got.res.Edges.Len(), want.res.Edges.Len())
	}
	for _, k := range want.res.Edges.Keys() {
		w, wp, _ := want.res.Edges.Lookup(k)
		if g, ok := got.res.Edges.Label(k); !ok || g != w {
			e := graph.EdgeFromKey(k)
			t.Fatalf("%s: edge {%d,%d} predicted %v, want %v", context, e.U, e.V, g, w)
		}
		gp := got.res.Edges.Probs(k)
		if len(gp) != len(wp) {
			t.Fatalf("%s: edge %d probability vector missing or misshapen", context, k)
		}
		for c := range wp {
			if !(math.Abs(gp[c]-wp[c]) <= tol) { // NaN fails too
				e := graph.EdgeFromKey(k)
				t.Fatalf("%s: edge {%d,%d} class %d: %.17g vs %.17g (tol %g)",
					context, e.U, e.V, c, gp[c], wp[c], tol)
			}
		}
	}
}

// TestWALDurableRestart: apply batches, stop orderly, restart from the
// WAL directory — the replayed server must match a never-stopped control
// to 1e-12.
func TestWALDurableRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := New(walConfig(t, dir, nil)) // nil FS = the real one
	if err != nil {
		t.Fatal(err)
	}
	control, err := New(walConfig(t, t.TempDir(), nil))
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	t.Cleanup(control.Close)

	pairs := absentPairs(s, 3)
	for i, p := range pairs {
		if _, err := s.Mutate(addBatch(p, i), true); err != nil {
			t.Fatal(err)
		}
		if _, err := control.Mutate(addBatch(p, i), true); err != nil {
			t.Fatal(err)
		}
	}
	ws, ok := s.WALStats()
	if !ok || ws.Records != 3 || ws.Seq != 3 {
		t.Fatalf("wal stats after 3 batches: %+v ok=%v", ws, ok)
	}
	s.Close()

	s2, err := New(walConfig(t, dir, nil))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(s2.Close)
	ws2, _ := s2.WALStats()
	if ws2.Replayed != 3 {
		t.Fatalf("restart replayed %d records, want 3", ws2.Replayed)
	}
	assertStateEqual(t, s2.current(), control.current(), 1e-12, "restarted vs control")

	// The restarted server keeps serving writes.
	extra := absentPairs(s2, 4)[3]
	if _, err := s2.Mutate(addBatch(extra, 9), true); err != nil {
		t.Fatalf("mutate after restart: %v", err)
	}
}

// TestWALCheckpointTruncates: a checkpoint absorbs the log; later batches
// replay on top of it.
func TestWALCheckpointTruncates(t *testing.T) {
	dir := t.TempDir()
	s, err := New(walConfig(t, dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	control, err := New(walConfig(t, t.TempDir(), nil))
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	t.Cleanup(control.Close)

	pairs := absentPairs(s, 3)
	for i, p := range pairs[:2] {
		if _, err := s.Mutate(addBatch(p, i), true); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	ws, _ := s.WALStats()
	if ws.Records != 0 || ws.BaseSeq != 2 || ws.Checkpoints != 1 {
		t.Fatalf("after checkpoint: %+v", ws)
	}
	if _, err := s.Mutate(addBatch(pairs[2], 2), true); err != nil {
		t.Fatal(err)
	}
	s.Close()

	for i, p := range pairs {
		if _, err := control.Mutate(addBatch(p, i), true); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := New(walConfig(t, dir, nil))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(s2.Close)
	ws2, _ := s2.WALStats()
	if ws2.Replayed != 1 {
		t.Fatalf("restart replayed %d records, want 1 (checkpoint covers the rest)", ws2.Replayed)
	}
	if s2.epochs.Load() != control.epochs.Load() {
		t.Fatalf("epoch after restart %d, control %d", s2.epochs.Load(), control.epochs.Load())
	}
	assertStateEqual(t, s2.current(), control.current(), 1e-12, "checkpoint+replay vs control")
}

// TestWALCrashMatrix is the serve-level kill -9 harness: the same
// workload (three acknowledged batches with a checkpoint in the middle)
// is killed at every write/sync/rename boundary via the injectable
// filesystem. After each crash the rebooted server must hold exactly the
// state of some batch prefix — at least every acknowledged batch, never a
// torn hybrid — verified against never-crashed control states to 1e-12.
func TestWALCrashMatrix(t *testing.T) {
	const nBatches = 3

	// Control: capture the state after each batch prefix. Snapshots are
	// immutable once published, so keeping the pointers is enough.
	control, err := New(walConfig(t, t.TempDir(), nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(control.Close)
	pairs := absentPairs(control, nBatches)
	states := []*snapshot{control.current()}
	for i, p := range pairs {
		if _, err := control.Mutate(addBatch(p, i), true); err != nil {
			t.Fatal(err)
		}
		states = append(states, control.current())
	}

	// Dry run: count the workload's fault points (boot excluded — the
	// fault arms after New). The checkpoint after the first batch puts
	// its create/write/sync/rename/dir-sync ops — and the log rewrite's —
	// on the fault surface too.
	dryFS := wal.NewMemFS()
	dryDir := "walcrash"
	func() {
		s, err := New(walConfig(t, dryDir, dryFS))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		dryFS.FailAfter(0) // reset the op counter; boot ops don't count
		for i, p := range pairs {
			if _, err := s.Mutate(addBatch(p, i), true); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				if err := s.CheckpointNow(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}()
	n := dryFS.Ops()
	if n < 10 {
		t.Fatalf("workload exposes only %d fault points", n)
	}
	t.Logf("crash matrix: %d fault points", n)

	for i := 1; i <= n; i++ {
		fs := wal.NewMemFS()
		s, err := New(walConfig(t, dryDir, fs))
		if err != nil {
			t.Fatalf("fault %d: boot: %v", i, err)
		}
		fs.FailAfter(i)
		acked := 0
		for k, p := range pairs {
			if _, err := s.Mutate(addBatch(p, k), true); err != nil {
				break
			}
			acked++
			if k == 0 {
				if err := s.CheckpointNow(); err != nil {
					break
				}
			}
		}
		s.Close() // the dying process's close may fail internally; fine

		// Reboot: page cache gone, fault disarmed.
		fs.Crash()
		fs.FailAfter(0)
		s2, err := New(walConfig(t, dryDir, fs))
		if err != nil {
			t.Fatalf("fault %d: recovery boot failed: %v", i, err)
		}
		m := int(s2.current().walSeq)
		if m < acked || m > nBatches {
			s2.Close()
			t.Fatalf("fault %d: recovered through batch %d, but %d were acknowledged", i, m, acked)
		}
		assertStateEqual(t, s2.current(), states[m], 1e-12,
			fmt.Sprintf("fault %d recovered prefix %d", i, m))
		// And the survivor still takes writes.
		extra := absentPairs(s2, nBatches+1)[nBatches]
		if _, err := s2.Mutate(addBatch(extra, 7), true); err != nil {
			s2.Close()
			t.Fatalf("fault %d: mutate after recovery: %v", i, err)
		}
		s2.Close()
	}
}

// TestWALReplayOracle proves the strong form of replay correctness: a
// server rebuilt purely from checkpoint+log (the first server was never
// closed cleanly — its log was simply left behind, as after kill -9) is
// equivalent to the live pipeline to 1e-12, and the recovered state is
// itself verifiable against a frozen full recompute via VerifyIncremental.
func TestWALReplayOracle(t *testing.T) {
	fs := wal.NewMemFS()
	dir := "waloracle"
	s, err := New(walConfig(t, dir, fs))
	if err != nil {
		t.Fatal(err)
	}
	pairs := absentPairs(s, 4)
	// A mixed workload: adds, a relabel of the first added edge, a remove.
	batches := [][]core.Mutation{
		addBatch(pairs[0], 0),
		addBatch(pairs[1], 1),
		{{Kind: core.MutRelabel, U: pairs[0][0], V: pairs[0][1], Label: social.Schoolmate, Revealed: true}},
		{{Kind: core.MutRemove, U: pairs[1][0], V: pairs[1][1]}},
		addBatch(pairs[2], 2),
	}
	for _, b := range batches {
		if _, err := s.Mutate(b, true); err != nil {
			t.Fatal(err)
		}
	}
	live := s.current()
	// Kill -9: drop the page cache with no orderly close. Acknowledged
	// batches were group-committed, so the durable log holds all of them.
	fs.Crash()

	s2, err := New(walConfig(t, dir, fs))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	ws, _ := s2.WALStats()
	if ws.Replayed != int64(len(batches)) {
		t.Fatalf("replayed %d records, want %d", ws.Replayed, len(batches))
	}
	replayed := s2.current()
	assertStateEqual(t, replayed, live, 1e-12, "replayed vs live")
	if replayed.epoch != live.epoch {
		t.Fatalf("epoch %d, want %d", replayed.epoch, live.epoch)
	}

	// The recovered state must also agree with a from-scratch frozen
	// recompute when mutated further — VerifyIncremental runs both paths
	// and compares to 1e-12.
	probe := addBatch(pairs[3], 3)
	if err := core.VerifyIncremental(replayed.pipe, replayed.ds, replayed.res, probe, 1e-12); err != nil {
		t.Fatalf("replayed state fails the frozen-recompute oracle: %v", err)
	}
	s2.Close()
	s.Close()
}

// TestCloseDrainsQueuedMutations is the regression test for the shutdown
// ordering fix: batches accepted (202) but still queued when Close is
// called must be applied and made durable, not dropped.
func TestCloseDrainsQueuedMutations(t *testing.T) {
	dir := t.TempDir()
	s, err := New(walConfig(t, dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	pairs := absentPairs(s, 3)
	for i, p := range pairs {
		if _, err := s.Mutate(addBatch(p, i), false); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	s.Close() // races the applier on purpose: drain must apply the rest

	if got := s.mutFailed.Load(); got != 0 {
		t.Fatalf("%d acknowledged mutations were failed at shutdown", got)
	}
	snap := s.current()
	if snap.walSeq != 3 {
		t.Fatalf("close-drain applied through seq %d, want 3", snap.walSeq)
	}
	for _, p := range pairs {
		if !snap.ds.G.HasEdge(p[0], p[1]) {
			t.Fatalf("queued edge {%d,%d} missing after orderly close", p[0], p[1])
		}
	}

	// And they were durable, not just applied: a restart replays them.
	s2, err := New(walConfig(t, dir, nil))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Close()
	ws, _ := s2.WALStats()
	if ws.Replayed != 3 {
		t.Fatalf("restart replayed %d, want 3", ws.Replayed)
	}
	assertStateEqual(t, s2.current(), snap, 1e-12, "restart vs drained close")
}

// TestHTTPKillRestartMatchesControl kills the serving process (page-cache
// drop, no orderly close) between acknowledged HTTP mutation bursts while
// concurrent readers hammer the API, restarts it on the same WAL
// directory, finishes the workload, and asserts /v1/edge agrees with a
// never-crashed control for every touched pair. Run under -race this also
// proves the WAL path adds no data races to the hot paths.
func TestHTTPKillRestartMatchesControl(t *testing.T) {
	fs := wal.NewMemFS()
	dir := "walhttp"
	s, err := New(walConfig(t, dir, fs))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close) // the "killed" process: cleanup just reaps goroutines
	control, err := New(walConfig(t, t.TempDir(), nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(control.Close)

	ts := httptest.NewServer(s.Handler())
	cts := httptest.NewServer(control.Handler())
	t.Cleanup(cts.Close)

	pairs := absentPairs(s, 6)
	post := func(srv *httptest.Server, i int) {
		p := pairs[i]
		body := fmt.Sprintf(`{"wait":true,"mutations":[{"op":"add","u":%d,"v":%d,"label":"family","revealed":true}]}`, p[0], p[1])
		resp, doc := postMutations(t, srv, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mutation %d: status %d (%v)", i, resp.StatusCode, doc)
		}
	}

	// Concurrent readers during the whole pre-crash burst.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					resp, err := http.Get(ts.URL + "/v1/stats")
					if err == nil {
						_ = resp.Body.Close()
					}
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		post(ts, i)
		post(cts, i)
	}
	close(stop)
	wg.Wait()
	ts.Close()

	// kill -9 between requests: no orderly close, page cache lost.
	fs.Crash()

	s2, err := New(walConfig(t, dir, fs))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(s2.Close)
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)

	for i := 3; i < 6; i++ {
		post(ts2, i)
		post(cts, i)
	}

	// Every touched pair answers identically on both servers.
	for i, p := range pairs {
		gotStatus, _ := edgeStatus(t, ts2, uint32(p[0]), uint32(p[1]))
		wantStatus, _ := edgeStatus(t, cts, uint32(p[0]), uint32(p[1]))
		if gotStatus != wantStatus {
			t.Fatalf("pair %d: /v1/edge status %d, control %d", i, gotStatus, wantStatus)
		}
	}
	assertStateEqual(t, s2.current(), control.current(), 1e-12, "kill/restart vs control")
}

// TestStatsCommunitiesMatchCheckpointMeta: two independent counters report
// a snapshot's community total — /v1/stats (from the live result) and the
// meta of the artifact a checkpoint writes (from its export). After a
// mutation epoch they must agree.
func TestStatsCommunitiesMatchCheckpointMeta(t *testing.T) {
	dir := t.TempDir()
	s, err := New(walConfig(t, dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i, p := range absentPairs(s, 3) {
		if _, err := s.Mutate(addBatch(p, i), true); err != nil {
			t.Fatal(err)
		}
	}
	var doc struct {
		Snapshot SnapshotInfo `json:"snapshot"`
	}
	if resp := getJSON(t, ts, "/v1/stats", &doc); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	if err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	art, err := artifact.LoadFile(wal.CheckpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if meta := art.Meta(); doc.Snapshot.Epoch != 3 || meta.Communities != doc.Snapshot.Communities || meta.Communities == 0 {
		t.Fatalf("epoch %d: /v1/stats reports %d communities, checkpoint meta %d",
			doc.Snapshot.Epoch, doc.Snapshot.Communities, meta.Communities)
	}
}

// TestRecoveryReadsCheckpointOnce: booting on a WAL directory that holds
// only a checkpoint reads the file once and parses it in place. On this
// 2 MB checkpoint (n = 1 000) New allocates 2.84× its size, -race or not;
// handing the bytes read to artifact.Load, whose io.ReadAll copies them
// again into a buffer grown by doubling, made it 8.0× (8.2× on the
// n = 10 000 write fixture, where parsing in place gives 2.4×).
func TestRecoveryReadsCheckpointOnce(t *testing.T) {
	// Large enough that the checkpoint, not New's fixed set-up, is what
	// the bound measures.
	s, err := New(Config{
		Users: 1000, Survey: 0.5, Seed: 7, Variant: "xgb",
		Rounds: 5, MaxDepth: 3, Detector: "labelprop",
		Logger: discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	art, err := mutableSnapshot(s)
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := art.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	size := ckpt.Len()
	fsys := wal.NewMemFS()
	f, err := fsys.Create(wal.CheckpointPath("wal"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := walConfig(t, "wal", fsys)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err = New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(size)
	t.Logf("New allocated %.2f× the %d-byte checkpoint", ratio, size)
	if ratio > 3 {
		t.Fatalf("New allocated %.2f× the %d-byte checkpoint, want at most 3×", ratio, size)
	}
}
