package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"locec/internal/graph"
)

// discardLogger silences request logging in tests.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// testServer builds a small, fast service: tiny population, label
// propagation instead of Girvan-Newman, XGBoost instead of the CNN.
func testServer(t testing.TB) *Server {
	t.Helper()
	s, err := New(Config{
		Users:    80,
		Survey:   0.5,
		Seed:     7,
		Variant:  "xgb",
		Rounds:   5,
		MaxDepth: 3,
		Detector: "labelprop",
		Logger:   discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// anyEdge returns some friendship present in the live snapshot.
func anyEdge(s *Server) (uint32, uint32) {
	var u, v graph.NodeID
	found := false
	s.current().ds.G.ForEachEdge(func(a, b graph.NodeID) {
		if !found {
			u, v, found = a, b, true
		}
	})
	if !found {
		panic("snapshot has no edges")
	}
	return uint32(u), uint32(v)
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	var doc struct {
		Status  string `json:"status"`
		Version int64  `json:"version"`
	}
	resp := getJSON(t, ts, "/healthz", &doc)
	if resp.StatusCode != http.StatusOK || doc.Status != "ok" || doc.Version != 1 {
		t.Fatalf("healthz = %d %+v, want 200 ok v1", resp.StatusCode, doc)
	}
}

func TestEdgeLookup(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	u, v := anyEdge(s)

	var doc struct {
		U     uint32 `json:"u"`
		V     uint32 `json:"v"`
		Found bool   `json:"found"`
		Label string `json:"label"`
		Probs struct {
			Colleague  float64 `json:"colleague"`
			Family     float64 `json:"family"`
			Schoolmate float64 `json:"schoolmate"`
		} `json:"probabilities"`
	}
	resp := getJSON(t, ts, fmt.Sprintf("/v1/edge?u=%d&v=%d", u, v), &doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if !doc.Found || doc.Label == "" {
		t.Fatalf("edge {%d,%d} not classified: %+v", u, v, doc)
	}
	total := doc.Probs.Colleague + doc.Probs.Family + doc.Probs.Schoolmate
	if total < 0.99 || total > 1.01 {
		t.Fatalf("probabilities sum to %f, want ~1", total)
	}
}

func TestEdgeErrors(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/edge?u=abc&v=1", http.StatusBadRequest},
		{"/v1/edge?u=0&v=999999", http.StatusBadRequest},
		{"/v1/edge?u=0&v=0", http.StatusNotFound}, // self-loop never exists
	} {
		resp := getJSON(t, ts, tc.path, nil)
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

func TestClassifyBatchAndCache(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	u, v := anyEdge(s)
	body := fmt.Sprintf(`{"edges":[{"u":%d,"v":%d},{"u":%d,"v":%d}]}`, u, v, v, u)

	post := func() (*http.Response, map[string]any) {
		resp, err := ts.Client().Post(ts.URL+"/v1/classify", "application/json",
			bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return resp, doc
	}

	resp, doc := post()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	results := doc["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	// {u,v} and {v,u} are the same undirected friendship.
	r0 := results[0].(map[string]any)
	r1 := results[1].(map[string]any)
	if r0["label"] != r1["label"] {
		t.Fatalf("labels differ across edge orientations: %v vs %v", r0["label"], r1["label"])
	}

	resp2, _ := post()
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", got)
	}
	hits, _, _ := s.cache.stats()
	if hits == 0 {
		t.Fatal("cache recorded no hits")
	}
}

func TestClassifyBadRequests(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	for _, body := range []string{"", "{", `{"edges":[]}`} {
		resp, err := ts.Client().Post(ts.URL+"/v1/classify", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestCommunities(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	var doc struct {
		Node        int `json:"node"`
		Communities []struct {
			Members   []uint32  `json:"members"`
			Tightness []float64 `json:"tightness"`
			Label     string    `json:"label"`
		} `json:"communities"`
	}
	resp := getJSON(t, ts, "/v1/communities/0", &doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if len(doc.Communities) == 0 {
		t.Fatal("node 0 has no communities")
	}
	for _, c := range doc.Communities {
		if len(c.Members) == 0 || len(c.Members) != len(c.Tightness) {
			t.Fatalf("malformed community: %+v", c)
		}
	}
	if resp := getJSON(t, ts, "/v1/communities/999999", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range node: status = %d, want 400", resp.StatusCode)
	}
}

func TestStats(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	var doc struct {
		Snapshot SnapshotInfo       `json:"snapshot"`
		Phase    map[string]float64 `json:"phase_seconds"`
		Cache    map[string]int64   `json:"cache"`
	}
	resp := getJSON(t, ts, "/v1/stats", &doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if doc.Snapshot.Nodes != 80 || doc.Snapshot.Edges == 0 || doc.Snapshot.Communities == 0 {
		t.Fatalf("implausible snapshot stats: %+v", doc.Snapshot)
	}
	if doc.Snapshot.Classifier != "LoCEC-XGB" {
		t.Fatalf("classifier = %q, want LoCEC-XGB", doc.Snapshot.Classifier)
	}
	if _, ok := doc.Phase["division"]; !ok {
		t.Fatalf("phase_seconds missing division: %v", doc.Phase)
	}
}

// TestStatsReportsLatencyPercentiles pins the middleware → histogram →
// /v1/stats plumbing: after a few requests, the stats payload carries
// per-route percentiles keyed by the matched mux pattern.
func TestStatsReportsLatencyPercentiles(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	u, v := anyEdge(s)
	for i := 0; i < 5; i++ {
		resp, err := ts.Client().Get(fmt.Sprintf("%s/v1/edge?u=%d&v=%d", ts.URL, u, v))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	var doc struct {
		Latency map[string]struct {
			Count int64   `json:"count"`
			P50Ms float64 `json:"p50_ms"`
			P99Ms float64 `json:"p99_ms"`
			MaxMs float64 `json:"max_ms"`
		} `json:"latency_ms"`
	}
	if resp := getJSON(t, ts, "/v1/stats", &doc); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	edge, ok := doc.Latency["GET /v1/edge"]
	if !ok {
		t.Fatalf("latency_ms missing the edge route: %v", doc.Latency)
	}
	if edge.Count != 5 {
		t.Errorf("edge route count = %d, want 5", edge.Count)
	}
	if edge.P50Ms <= 0 || edge.P99Ms < edge.P50Ms || edge.MaxMs < edge.P99Ms {
		t.Errorf("implausible percentiles: %+v", edge)
	}

	// The exported accessor mirrors the endpoint.
	stats := s.LatencyStats()
	if stats["GET /v1/edge"].Count != 5 {
		t.Errorf("LatencyStats edge count = %d, want 5", stats["GET /v1/edge"].Count)
	}
}

func TestReloadSwapsSnapshot(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/reload", "application/json",
		strings.NewReader(`{"seed": 99}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info SnapshotInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || info.Version != 2 || info.Seed != 99 {
		t.Fatalf("reload = %d %+v, want 200 version 2 seed 99", resp.StatusCode, info)
	}
	if got := s.current().version; got != 2 {
		t.Fatalf("live snapshot version = %d, want 2", got)
	}
}

// TestConcurrentReadersDuringReload hammers /v1/edge and /v1/classify from
// many goroutines while reloads swap snapshots underneath — the
// atomic.Pointer contract: every reader sees a complete snapshot, old or
// new, and nothing errors. Run with -race for the full guarantee.
func TestConcurrentReadersDuringReload(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	u, v := anyEdge(s)

	const readers = 8
	const lookupsPerReader = 30
	var wg sync.WaitGroup
	errCh := make(chan error, readers*lookupsPerReader)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < lookupsPerReader; j++ {
				var resp *http.Response
				var err error
				if j%2 == 0 {
					resp, err = ts.Client().Get(fmt.Sprintf("%s/v1/edge?u=%d&v=%d", ts.URL, u, v))
				} else {
					resp, err = ts.Client().Post(ts.URL+"/v1/classify", "application/json",
						strings.NewReader(fmt.Sprintf(`{"edges":[{"u":%d,"v":%d}]}`, u, v)))
				}
				if err != nil {
					errCh <- err
					continue
				}
				// The probed edge exists in the seed-7 snapshot; after a
				// reload (new seed, new graph) it may legitimately vanish,
				// so 404 is acceptable — only 5xx/4xx-other are failures.
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					errCh <- fmt.Errorf("reader status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(i)
	}

	// Two reloads race with the readers.
	for _, seed := range []int64{21, 22} {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if _, err := s.Reload(seed); err != nil {
				errCh <- err
			}
		}(seed)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got := s.current().version; got != 3 {
		t.Fatalf("final version = %d, want 3 (initial + 2 reloads)", got)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", []byte("1"))
	c.put("b", []byte("2"))
	if _, ok := c.get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", []byte("3")) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c missing")
	}
	if _, _, size := c.stats(); size != 2 {
		t.Fatalf("size = %d, want 2", size)
	}
}

func TestNewRejectsUnknownConfig(t *testing.T) {
	if _, err := New(Config{Detector: "louvian", Logger: discardLogger()}); err == nil {
		t.Fatal("misspelled detector accepted")
	}
	if _, err := New(Config{Variant: "cnn2", Logger: discardLogger()}); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

// exportToFile downloads the live snapshot of s from GET /v1/artifact
// into an artifact file.
func exportToFile(t *testing.T, s *Server, path string) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/artifact", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/artifact: status %d: %s", rec.Code, rec.Body)
	}
	if err := os.WriteFile(path, rec.Body.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestArtifactColdStartMatchesRetrain is the serving half of the
// round-trip property: a server cold-started from an exported artifact
// answers every /v1/edge request with byte-identical JSON to the server
// that trained the snapshot.
func TestArtifactColdStartMatchesRetrain(t *testing.T) {
	trained := testServer(t)
	path := t.TempDir() + "/model.locec"
	exportToFile(t, trained, path)

	cold, err := New(Config{Artifact: path, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	tsTrained := httptest.NewServer(trained.Handler())
	defer tsTrained.Close()
	tsCold := httptest.NewServer(cold.Handler())
	defer tsCold.Close()

	fetch := func(ts *httptest.Server, path string) []byte {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	checked := 0
	trained.Dataset().G.ForEachEdge(func(u, v graph.NodeID) {
		if checked >= 50 {
			return
		}
		checked++
		p := fmt.Sprintf("/v1/edge?u=%d&v=%d", u, v)
		if a, b := fetch(tsTrained, p), fetch(tsCold, p); !bytes.Equal(a, b) {
			t.Fatalf("GET %s diverges:\n trained: %s\n cold:    %s", p, a, b)
		}
	})
	if checked == 0 {
		t.Fatal("no edges checked")
	}
	// Communities survive too.
	a := fetch(tsTrained, "/v1/communities/3")
	b := fetch(tsCold, "/v1/communities/3")
	// The version field differs (1 vs 1 — both initial snapshots), so the
	// whole documents should match byte for byte.
	if !bytes.Equal(a, b) {
		t.Fatalf("communities diverge:\n trained: %s\n cold:    %s", a, b)
	}
}

// TestReloadFromArtifact swaps a snapshot in through POST /v1/reload
// without retraining.
func TestReloadFromArtifact(t *testing.T) {
	s := testServer(t)
	path := t.TempDir() + "/model.locec"
	exportToFile(t, s, path)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"artifact":%q}`, path)
	resp, err := ts.Client().Post(ts.URL+"/v1/reload", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info SnapshotInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if info.Version != 2 {
		t.Fatalf("version %d, want 2", info.Version)
	}
	if s.Version() != 2 {
		t.Fatalf("live version %d, want 2", s.Version())
	}

	// Both paths in one request is a client error.
	resp2, err := ts.Client().Post(ts.URL+"/v1/reload", "application/json",
		strings.NewReader(fmt.Sprintf(`{"seed":9,"artifact":%q}`, path)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("seed+artifact status %d, want 400", resp2.StatusCode)
	}

	// A missing file is a server-side error, and the old snapshot stays.
	resp3, err := ts.Client().Post(ts.URL+"/v1/reload", "application/json",
		strings.NewReader(`{"artifact":"/does/not/exist.locec"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusInternalServerError {
		t.Fatalf("missing artifact status %d, want 500", resp3.StatusCode)
	}
	if s.Version() != 2 {
		t.Fatalf("failed reload changed version to %d", s.Version())
	}
}

// TestArtifactEndpointRoundTrips downloads /v1/artifact and cold-starts
// a server from the bytes.
func TestArtifactEndpointRoundTrips(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/artifact")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/downloaded.locec"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cold, err := New(Config{Artifact: path, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cold.Dataset().G.NumEdges(), s.Dataset().G.NumEdges(); got != want {
		t.Fatalf("cold snapshot has %d edges, want %d", got, want)
	}
}

// TestNewArtifactMissingFile pins the cold-start failure mode.
func TestNewArtifactMissingFile(t *testing.T) {
	if _, err := New(Config{Artifact: "/does/not/exist.locec", Logger: discardLogger()}); err == nil {
		t.Fatal("expected error for missing artifact file")
	}
}

// TestEdgeResponsesMatchMapOracle pins /v1/edge byte-identity against the
// map-shaped representation Result used to carry: for every stored edge,
// the raw HTTP body must equal an edgeResult marshaled from plain
// key→label / key→probs maps. A store lookup bug (wrong index, off-by-one
// in the flat probability slicing) changes the served bytes and fails here.
func TestEdgeResponsesMatchMapOracle(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := s.current().res.Edges
	labelByKey := st.LabelMap()
	probsByKey := make(map[uint64][]float64, st.Len())
	for _, k := range st.Keys() {
		probsByKey[k] = st.Probs(k)
	}
	if len(labelByKey) == 0 {
		t.Fatal("no predicted edges")
	}
	for k := range labelByKey {
		e := graph.EdgeFromKey(k)
		resp, err := ts.Client().Get(fmt.Sprintf("%s/v1/edge?u=%d&v=%d", ts.URL, e.U, e.V))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("edge {%d,%d}: status %d", e.U, e.V, resp.StatusCode)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(edgeResult{
			U:     uint32(e.U),
			V:     uint32(e.V),
			Found: true,
			Label: labelByKey[k].String(),
			Probs: newProbsDoc(probsByKey[k]),
		}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("edge {%d,%d}: body %q != map-oracle %q", e.U, e.V, body, want.Bytes())
		}
	}
}
