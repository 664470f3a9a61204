package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/social"
	"locec/internal/wal"
)

// absentPair returns a node pair with no friendship in the live snapshot.
func absentPair(s *Server) (uint32, uint32) {
	g := s.current().ds.G
	n := graph.NodeID(g.NumNodes())
	for u := graph.NodeID(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) {
				return uint32(u), uint32(v)
			}
		}
	}
	panic("graph is complete")
}

// postMutations posts a raw /v1/mutations body and decodes the response.
func postMutations(t *testing.T, ts *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/mutations", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode mutation response: %v", err)
	}
	return resp, doc
}

// edgeStatus fetches /v1/edge and returns the HTTP status plus the
// snapshot version header.
func edgeStatus(t *testing.T, ts *httptest.Server, u, v uint32) (int, int64) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/edge?u=%d&v=%d", ts.URL, u, v))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	version, err := strconv.ParseInt(resp.Header.Get("X-Snapshot-Version"), 10, 64)
	if err != nil {
		t.Fatalf("bad version header %q", resp.Header.Get("X-Snapshot-Version"))
	}
	return resp.StatusCode, version
}

func TestMutationsAddRemoveRelabel(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	au, av := absentPair(s)
	eu, ev := anyEdge(s)
	edgesBefore := s.current().ds.G.NumEdges()

	// Add a new friendship (revealed, with interactions) and wait.
	resp, doc := postMutations(t, ts, fmt.Sprintf(
		`{"mutations":[{"op":"add","u":%d,"v":%d,"label":"family","revealed":true,"interactions":[4,0,1,0,2,0,0,3]}],"wait":true}`, au, av))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add status %d: %v", resp.StatusCode, doc)
	}
	if doc["status"] != "applied" || doc["epoch"].(float64) != 1 {
		t.Fatalf("add response: %v", doc)
	}
	if doc["dirty_nodes"].(float64) < 2 || doc["added_edges"].(float64) != 1 {
		t.Fatalf("add stats: %v", doc)
	}
	if status, _ := edgeStatus(t, ts, au, av); status != http.StatusOK {
		t.Fatalf("added edge lookup status %d", status)
	}

	// Remove an existing friendship and wait.
	resp, doc = postMutations(t, ts, fmt.Sprintf(
		`{"mutations":[{"op":"remove","u":%d,"v":%d}],"wait":true}`, eu, ev))
	if resp.StatusCode != http.StatusOK || doc["removed_edges"].(float64) != 1 {
		t.Fatalf("remove: %d %v", resp.StatusCode, doc)
	}
	if status, _ := edgeStatus(t, ts, eu, ev); status != http.StatusNotFound {
		t.Fatalf("removed edge lookup status %d, want 404", status)
	}
	if got := s.current().ds.G.NumEdges(); got != edgesBefore {
		t.Fatalf("edge count %d, want %d (one add, one remove)", got, edgesBefore)
	}

	// Relabel the added edge.
	resp, doc = postMutations(t, ts, fmt.Sprintf(
		`{"mutations":[{"op":"relabel","u":%d,"v":%d,"label":"colleague"}],"wait":true}`, au, av))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("relabel: %d %v", resp.StatusCode, doc)
	}
	k := (graph.Edge{U: graph.NodeID(au), V: graph.NodeID(av)}).Key()
	snap := s.current()
	if snap.ds.TrueLabel(k) != social.Colleague || !snap.ds.IsRevealed(k) {
		t.Fatalf("relabel not visible: label=%v revealed=%v", snap.ds.TrueLabel(k), snap.ds.IsRevealed(k))
	}
	if snap.epoch != 3 || snap.version != 4 {
		t.Fatalf("epoch/version = %d/%d, want 3/4", snap.epoch, snap.version)
	}

	// The mutated dataset still satisfies every invariant.
	if err := snap.ds.Validate(); err != nil {
		t.Fatal(err)
	}

	// Stats expose the mutation counters.
	var stats struct {
		Snapshot  SnapshotInfo `json:"snapshot"`
		Mutations struct {
			Applied        int64   `json:"applied"`
			Pending        int64   `json:"pending"`
			Failed         int64   `json:"failed"`
			LastEpoch      int64   `json:"last_epoch"`
			LastDirtyNodes int64   `json:"last_dirty_nodes"`
			LastDirtyEdges int64   `json:"last_dirty_edges"`
			LastApplySecs  float64 `json:"last_apply_seconds"`
		} `json:"mutations"`
	}
	getJSON(t, ts, "/v1/stats", &stats)
	m := stats.Mutations
	if m.Applied != 3 || m.Pending != 0 || m.Failed != 0 || m.LastEpoch != 3 {
		t.Fatalf("mutation stats: %+v", m)
	}
	if m.LastDirtyNodes < 2 || m.LastDirtyEdges == 0 || m.LastApplySecs <= 0 {
		t.Fatalf("mutation work stats: %+v", m)
	}
	if !stats.Snapshot.Mutable || stats.Snapshot.Epoch != 3 {
		t.Fatalf("snapshot info: %+v", stats.Snapshot)
	}
}

// TestMutationFoldObservable: every receipt carries the size of the live
// dataset's edit delta, and the one epoch that folds it back into the maps
// says so — in the receipt and in the /v1/stats fold counter.
func TestMutationFoldObservable(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	type mutationStats struct {
		Mutations struct {
			LastDatasetEdits int64 `json:"last_dataset_edits"`
			Folds            int64 `json:"folds"`
		} `json:"mutations"`
	}
	edges := s.current().ds.G.Edges()
	for i, e := range edges {
		resp, doc := postMutations(t, ts, fmt.Sprintf(
			`{"mutations":[{"op":"relabel","u":%d,"v":%d,"label":"family"}],"wait":true}`, e.U, e.V))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("relabel %d: %d %v", i, resp.StatusCode, doc)
		}
		var stats mutationStats
		getJSON(t, ts, "/v1/stats", &stats)
		if folded, _ := doc["folded"].(bool); folded {
			if doc["dataset_edits"].(float64) != 0 || stats.Mutations.Folds != 1 || stats.Mutations.LastDatasetEdits != 0 {
				t.Fatalf("fold at epoch %d: receipt %v, stats %+v", i+1, doc, stats.Mutations)
			}
			if (i+1)*(i+1) <= len(edges) {
				t.Fatalf("folded after %d edits over %d edges: before the delta outgrew its rule", i+1, len(edges))
			}
			return
		}
		// One distinct key per epoch: the delta grows by exactly one.
		if doc["dataset_edits"].(float64) != float64(i+1) || stats.Mutations.LastDatasetEdits != int64(i+1) || stats.Mutations.Folds != 0 {
			t.Fatalf("epoch %d: receipt %v, stats %+v", i+1, doc, stats.Mutations)
		}
	}
	t.Fatalf("%d one-key epochs over %d edges never folded", len(edges), len(edges))
}

func TestMutationsAsyncAcknowledge(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	au, av := absentPair(s)
	resp, doc := postMutations(t, ts, fmt.Sprintf(
		`{"mutations":[{"op":"add","u":%d,"v":%d,"label":"schoolmate"}]}`, au, av))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async status %d: %v", resp.StatusCode, doc)
	}
	if doc["status"] != "accepted" {
		t.Fatalf("async response: %v", doc)
	}
	token := int64(doc["epoch_submitted"].(float64))
	// Poll until the submitted batch's epoch lands.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var stats struct {
			Mutations struct {
				Pending   int64 `json:"pending"`
				LastEpoch int64 `json:"last_epoch"`
			} `json:"mutations"`
		}
		getJSON(t, ts, "/v1/stats", &stats)
		if stats.Mutations.LastEpoch > token && stats.Mutations.Pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("async mutation never applied: %+v", stats.Mutations)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status, _ := edgeStatus(t, ts, au, av); status != http.StatusOK {
		t.Fatalf("async-added edge lookup status %d", status)
	}
}

func TestMutationsBadRequests(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	eu, ev := anyEdge(s)
	n := s.current().ds.G.NumNodes()

	badBodies := []string{
		`{}`,
		`{"mutations":[]}`,
		`{"mutations":[{"op":"noop","u":0,"v":1}]}`,
		`{"mutations":[{"op":"add","u":1,"v":1}]}`,
		fmt.Sprintf(`{"mutations":[{"op":"add","u":0,"v":%d}]}`, n),
		`{"mutations":[{"op":"add","u":0,"v":1,"label":"bestie"}]}`,
		`{"mutations":[{"op":"add","u":0,"v":1,"interactions":[1,2]}]}`,
		`{"mutations":[{"op":"add","u":0,"v":1,"interactions":[1,2,3,-4,5,6,7,8]}]}`,
		`{"mutations":[{"op":"add","u":0,"v":1,"interactions":[1,2,3,4,5,6,7,1e999]}]}`,
		`{"mutations":[{"op":"add","u":0,"v":1,"interactions":[NaN,2,3,4,5,6,7,8]}]}`,
		fmt.Sprintf(`{"mutations":[{"op":"relabel","u":%d,"v":%d}]}`, eu, ev),
		`not json`,
	}
	for _, body := range badBodies {
		resp, _ := postMutations(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	// A hostile interaction row is refused by name, before it reaches the
	// queue or the WAL.
	resp, doc := postMutations(t, ts, `{"mutations":[{"op":"remove","u":0,"v":1},{"op":"add","u":2,"v":3,"interactions":[0,0,0,0,0,-0.5,0,0]}]}`)
	if msg, _ := doc["error"].(string); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "mutation 1: add {2,3}: interaction dim 5 = -0.5") {
		t.Errorf("hostile row: status %d, error %q", resp.StatusCode, msg)
	}

	// Structurally valid but semantically impossible: rejected at apply
	// time with a conflict.
	resp, doc = postMutations(t, ts, fmt.Sprintf(
		`{"mutations":[{"op":"add","u":%d,"v":%d,"label":"family"}],"wait":true}`, eu, ev))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate add: status %d %v, want 409", resp.StatusCode, doc)
	}
	var stats struct {
		Mutations struct {
			Failed int64 `json:"failed"`
		} `json:"mutations"`
	}
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.Mutations.Failed != 1 {
		t.Fatalf("failed counter = %d, want 1", stats.Mutations.Failed)
	}
}

func TestMutationsRejectedOnArtifactSnapshot(t *testing.T) {
	s := testServer(t)
	path := filepath.Join(t.TempDir(), "snap.locec")
	exportToFile(t, s, path)
	if _, err := s.ReloadArtifact(path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, doc := postMutations(t, ts, `{"mutations":[{"op":"remove","u":0,"v":1}],"wait":true}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d %v, want 409", resp.StatusCode, doc)
	}
	var stats struct {
		Snapshot SnapshotInfo `json:"snapshot"`
	}
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.Snapshot.Mutable {
		t.Fatal("artifact snapshot claims to be mutable")
	}
}

func TestMutateQueueClosed(t *testing.T) {
	s := testServer(t)
	s.Close()
	if _, err := s.Mutate([]core.Mutation{{Kind: core.MutRemove, U: 0, V: 1}}, true); err == nil {
		t.Fatal("Mutate succeeded on a closed server")
	}
}

// TestConcurrentMutateWhileRead hammers GET /v1/edge while a writer
// toggles the probed edge through POST /v1/mutations. Every response must
// be internally consistent with the snapshot version it reports: found
// when that version contains the edge, 404 when it does not.
func TestConcurrentMutateWhileRead(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	au, av := absentPair(s)

	// presence[version] records whether {au,av} exists in that snapshot.
	// Only this test mutates the server, so every published version is
	// accounted for.
	var presenceMu sync.Mutex
	presence := map[int64]bool{s.Version(): false}

	type obs struct {
		version int64
		found   bool
	}
	const readers = 4
	var wg sync.WaitGroup
	observations := make([][]obs, readers)
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				status, version := edgeStatus(t, ts, au, av)
				switch status {
				case http.StatusOK, http.StatusNotFound:
					observations[r] = append(observations[r], obs{version, status == http.StatusOK})
				default:
					t.Errorf("reader %d: status %d", r, status)
					return
				}
			}
		}(r)
	}

	// Writer: toggle the edge 8 times, recording each new version's state.
	present := false
	for i := 0; i < 8; i++ {
		var body string
		if present {
			body = fmt.Sprintf(`{"mutations":[{"op":"remove","u":%d,"v":%d}],"wait":true}`, au, av)
		} else {
			body = fmt.Sprintf(`{"mutations":[{"op":"add","u":%d,"v":%d,"label":"family","revealed":true}],"wait":true}`, au, av)
		}
		resp, doc := postMutations(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("toggle %d: status %d: %v", i, resp.StatusCode, doc)
		}
		present = !present
		version := int64(doc["snapshot"].(map[string]any)["version"].(float64))
		presenceMu.Lock()
		presence[version] = present
		presenceMu.Unlock()
	}
	close(stop)
	wg.Wait()

	total := 0
	for r, obsList := range observations {
		lastVersion := int64(0)
		for _, o := range obsList {
			want, known := presence[o.version]
			if !known {
				t.Fatalf("reader %d: response cites unknown snapshot version %d", r, o.version)
			}
			if o.found != want {
				t.Fatalf("reader %d: version %d reported found=%v, snapshot state is %v", r, o.version, o.found, want)
			}
			if o.version < lastVersion {
				t.Fatalf("reader %d: snapshot version went backwards (%d after %d)", r, o.version, lastVersion)
			}
			lastVersion = o.version
			total++
		}
	}
	if total == 0 {
		t.Fatal("readers made no observations")
	}
}

// TestMutatedSnapshotArtifactRoundTrip proves a mutated snapshot ships
// through the artifact layer like a trained one: export the live (mutated)
// snapshot, cold-start a second server from the file, and require
// identical answers.
func TestMutatedSnapshotArtifactRoundTrip(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	au, av := absentPair(s)
	eu, ev := anyEdge(s)
	if _, doc := postMutations(t, ts, fmt.Sprintf(
		`{"mutations":[{"op":"add","u":%d,"v":%d,"label":"family","revealed":true},{"op":"remove","u":%d,"v":%d}],"wait":true}`,
		au, av, eu, ev)); doc["status"] != "applied" {
		t.Fatalf("mutations not applied: %v", doc)
	}

	path := filepath.Join(t.TempDir(), "mutated.locec")
	exportToFile(t, s, path)
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("artifact export: %v", err)
	}
	s2, err := New(Config{Artifact: path, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	// Mutations must be visible in the cold-started snapshot...
	if status, _ := edgeStatus(t, ts2, au, av); status != http.StatusOK {
		t.Fatalf("added edge missing after round trip (status %d)", status)
	}
	if status, _ := edgeStatus(t, ts2, eu, ev); status != http.StatusNotFound {
		t.Fatalf("removed edge present after round trip")
	}
	// ...and a sample of predictions must match byte for byte.
	checked := 0
	s.current().ds.G.ForEachEdge(func(u, v graph.NodeID) {
		if checked >= 25 {
			return
		}
		checked++
		path := fmt.Sprintf("/v1/edge?u=%d&v=%d", u, v)
		var a, b edgeResult
		getJSON(t, ts, path, &a)
		getJSON(t, ts2, path, &b)
		if a.Label != b.Label || a.Found != b.Found || a.Probs != b.Probs {
			t.Fatalf("edge {%d,%d}: %+v != %+v after artifact round trip", u, v, a, b)
		}
	})
	if checked == 0 {
		t.Fatal("no edges compared")
	}
}

// TestApplyJobsFallbackSkipsPoisonedJob drives the per-job fallback of
// applyJobs: a coalesced burst of three jobs whose middle one adds an edge
// that already exists. The burst is handed to applyJobs directly, charged
// the way Mutate charges it, so what coalesces is not left to scheduling.
// Jobs 1 and 3 must land in one epoch with their own stats, job 2 must get
// the applier's error, and the one published snapshot must equal batch 1
// then batch 3 applied through the pipeline. With a WAL all three records
// are logged and a restart on the log skips the rejected one, as live.
func TestApplyJobsFallbackSkipsPoisonedJob(t *testing.T) {
	for _, withWAL := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", withWAL), func(t *testing.T) {
			fs := wal.NewMemFS()
			var s *Server
			if withWAL {
				var err error
				if s, err = New(walConfig(t, "fallback", fs)); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s.Close)
			} else {
				s = testServer(t)
			}
			pairs := absentPairs(s, 2)
			eu, ev := anyEdge(s)
			existing := [2]graph.NodeID{graph.NodeID(eu), graph.NodeID(ev)}
			relabel := core.Mutation{Kind: core.MutRelabel, U: existing[0], V: existing[1], Label: social.Family, Revealed: true}
			batches := [][]core.Mutation{
				addBatch(pairs[0], 0),
				append([]core.Mutation{relabel}, addBatch(existing, 1)...), // valid relabel, then the poison
				append(addBatch(pairs[1], 2), relabel),
			}

			// The expected outcome, computed on the pipeline alone.
			before := s.current()
			ds1, res1, stats1, err := before.pipe.ApplyMutations(before.ds, before.res, batches[0])
			if err != nil {
				t.Fatal(err)
			}
			_, _, _, poisonErr := before.pipe.ApplyMutations(ds1, res1, batches[1])
			if poisonErr == nil || !strings.Contains(poisonErr.Error(), "already exists") {
				t.Fatalf("batch 2 is not poisoned: %v", poisonErr)
			}
			ds3, res3, stats3, err := before.pipe.ApplyMutations(ds1, res1, batches[2])
			if err != nil {
				t.Fatal(err)
			}

			failed0, applied0 := s.mutFailed.Load(), s.mutApplied.Load()
			jobs := make([]mutationJob, len(batches))
			for i, b := range batches {
				jobs[i] = mutationJob{batch: b, done: make(chan mutationOutcome, 1)}
				s.mutPending.Add(int64(len(b)))
			}
			s.applyJobs(jobs)
			var out [3]mutationOutcome
			for i, job := range jobs {
				select {
				case out[i] = <-job.done:
				default:
					t.Fatalf("job %d was never settled", i+1)
				}
			}

			if out[1].err == nil || out[1].err.Error() != poisonErr.Error() {
				t.Fatalf("job 2: err %v, want the applier's %q", out[1].err, poisonErr)
			}
			for _, c := range []struct {
				job  int
				want core.ApplyStats
			}{{0, stats1}, {2, stats3}} {
				o := out[c.job]
				if o.err != nil {
					t.Fatalf("job %d dropped with its poisoned neighbour: %v", c.job+1, o.err)
				}
				if o.epoch != before.epoch+1 || o.info.Version != before.version+1 {
					t.Fatalf("job %d: epoch/version %d/%d, want %d/%d", c.job+1, o.epoch, o.info.Version, before.epoch+1, before.version+1)
				}
				got := o.stats
				got.Duration, c.want.Duration = 0, 0
				if got != c.want {
					t.Fatalf("job %d stats %+v, want its own batch's %+v", c.job+1, got, c.want)
				}
			}
			after := s.current()
			if after.version != before.version+1 || after.epoch != before.epoch+1 {
				t.Fatalf("published version/epoch %d/%d, want exactly one past %d/%d",
					after.version, after.epoch, before.version, before.epoch)
			}
			if got := s.mutFailed.Load() - failed0; got != int64(len(batches[1])) {
				t.Fatalf("mutations.failed grew by %d, want job 2's %d", got, len(batches[1]))
			}
			if got := s.mutApplied.Load() - applied0; got != int64(len(batches[0])+len(batches[2])) {
				t.Fatalf("mutations.applied grew by %d, want %d", got, len(batches[0])+len(batches[2]))
			}
			if got := s.mutPending.Load(); got != 0 {
				t.Fatalf("mutations.pending = %d after the burst settled", got)
			}
			assertStateEqual(t, after, &snapshot{ds: ds3, res: res3}, "published vs batch 1 then batch 3")

			if !withWAL {
				return
			}
			if ws, _ := s.WALStats(); ws.Records != 3 || after.walSeq != 3 {
				t.Fatalf("wal holds %d records, snapshot covers seq %d; want all 3", ws.Records, after.walSeq)
			}
			fs.Crash()
			s2, err := New(walConfig(t, "fallback", fs))
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer s2.Close()
			if ws, _ := s2.WALStats(); ws.Replayed != 3 {
				t.Fatalf("restart replayed %d records, want 3", ws.Replayed)
			}
			assertStateEqual(t, s2.current(), after, "restarted vs live")
		})
	}
}
