package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"locec/internal/artifact"
	"locec/internal/graph"
	"locec/internal/ring"
)

// cutTestShards trains a small snapshot, cuts it n ways, writes the shard
// artifacts to a temp dir and returns their paths plus the full server.
func cutTestShards(t *testing.T, n int) (*Server, []string) {
	t.Helper()
	full := testServer(t)
	dir := t.TempDir()
	fullPath := filepath.Join(dir, "model.locec")
	exportToFile(t, full, fullPath)
	art, err := artifact.LoadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := artifact.CutShards(art, n)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, n)
	for i, sh := range shards {
		paths[i] = filepath.Join(dir, artifact.ShardPath("model.locec", i, n))
		if err := sh.SaveFile(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	return full, paths
}

// shardServer boots one member of the cut fleet.
func shardServer(t *testing.T, path string, i, n int) *Server {
	t.Helper()
	s, err := New(Config{
		Artifact:   path,
		ShardIndex: i,
		ShardCount: n,
		Logger:     discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestShardServing pins the sharded contract end to end: every edge of
// the full snapshot is served by exactly its owner shard with the same
// answer the full server gives, and every other shard answers 421 with
// the correct owner — never a silent not-found.
func TestShardServing(t *testing.T) {
	const n = 2
	full, paths := cutTestShards(t, n)
	rg := ring.MustNew(n)
	servers := make([]*Server, n)
	tss := make([]*httptest.Server, n)
	for i := range servers {
		servers[i] = shardServer(t, paths[i], i, n)
		tss[i] = httptest.NewServer(servers[i].Handler())
		defer tss[i].Close()
	}

	checked := 0
	full.current().ds.G.ForEachEdge(func(u, v graph.NodeID) {
		if checked >= 40 { // a sample is plenty; the artifact test pins the full partition
			return
		}
		checked++
		owner := rg.OwnerEdge(uint32(u), uint32(v))
		wantLabel, _, ok := full.current().label(u, v)
		if !ok {
			t.Fatalf("full server does not know edge {%d,%d}", u, v)
		}
		for i := range servers {
			var doc struct {
				Found bool   `json:"found"`
				Label string `json:"label"`
				Owner int    `json:"owner_shard"`
			}
			resp := getJSON(t, tss[i], fmt.Sprintf("/v1/edge?u=%d&v=%d", u, v), &doc)
			if i == owner {
				if resp.StatusCode != http.StatusOK || !doc.Found || doc.Label != wantLabel.String() {
					t.Fatalf("owner shard %d: edge {%d,%d} = %d %+v, want 200 %s",
						i, u, v, resp.StatusCode, doc, wantLabel)
				}
			} else {
				if resp.StatusCode != http.StatusMisdirectedRequest {
					t.Fatalf("shard %d: edge {%d,%d} (owner %d) = %d, want 421",
						i, u, v, owner, resp.StatusCode)
				}
				if doc.Owner != owner {
					t.Fatalf("shard %d names owner %d for edge {%d,%d}, want %d",
						i, doc.Owner, u, v, owner)
				}
			}
		}
	})
	if checked == 0 {
		t.Fatal("no edges checked")
	}

	// Communities: a node's owner serves them; others answer 421.
	for u := 0; u < 20; u++ {
		owner := rg.OwnerNode(uint32(u))
		for i := range servers {
			resp := getJSON(t, tss[i], fmt.Sprintf("/v1/communities/%d", u), nil)
			want := http.StatusOK
			if i != owner {
				want = http.StatusMisdirectedRequest
			}
			if resp.StatusCode != want {
				t.Fatalf("shard %d: communities/%d (owner %d) = %d, want %d", i, u, owner, resp.StatusCode, want)
			}
		}
	}
}

// TestShardConfigValidation pins the cross-wiring guards: wrong slice,
// full artifact on a shard server, shard artifact on a full server, and a
// shard with no artifact are all rejected.
func TestShardConfigValidation(t *testing.T) {
	_, paths := cutTestShards(t, 2)

	// Wrong slice for the configured index.
	if _, err := New(Config{Artifact: paths[1], ShardIndex: 0, ShardCount: 2, Logger: discardLogger()}); err == nil {
		t.Fatal("loading shard 1's artifact as shard 0 succeeded")
	}
	// Shard artifact on an unsharded server.
	if _, err := New(Config{Artifact: paths[0], Logger: discardLogger()}); err == nil {
		t.Fatal("loading a shard artifact unsharded succeeded")
	}
	// Sharded config without an artifact.
	if _, err := New(Config{ShardIndex: 0, ShardCount: 2, Logger: discardLogger()}); err == nil {
		t.Fatal("sharded config without an artifact succeeded")
	}
	// Shard stats advertise the slice.
	s := shardServer(t, paths[0], 0, 2)
	if got := s.current().info().Shard; got != "0/2" {
		t.Fatalf("shard info = %q, want 0/2", got)
	}
}

// TestShardRefusesMutations pins a shard's 409: a cut carries no dataset
// and a shard takes no WAL, so the refusal says shards serve reads only and
// names the full trained server, in the router's words, not the remedies
// of an unsharded read-only server.
func TestShardRefusesMutations(t *testing.T) {
	_, paths := cutTestShards(t, 2)
	s := shardServer(t, paths[0], 0, 2)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/mutations",
		strings.NewReader(`{"wait":true,"mutations":[{"op":"remove","u":0,"v":1}]}`)))
	var doc struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	const want = "serve: immutable snapshot: shard 0/2 serves reads only; send mutations to the full trained server: " +
		"locec-serve -artifact <full .locec written by locec train -embed-dataset>, with -wal for durability"
	if rec.Code != http.StatusConflict || doc.Error != want {
		t.Fatalf("mutation on shard 0/2 = %d %q, want 409 %q", rec.Code, doc.Error, want)
	}
}

// TestReadyz pins the liveness/readiness split: /readyz is 200 on a
// ready server and 503 after Close, while /healthz stays 200; before the
// real handler exists a BootGate answers /healthz 200 and /readyz 503.
func TestReadyz(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var doc struct {
		Status string `json:"status"`
	}
	if resp := getJSON(t, ts, "/readyz", &doc); resp.StatusCode != http.StatusOK || doc.Status != "ready" {
		t.Fatalf("/readyz = %d %+v, want 200 ready", resp.StatusCode, doc)
	}
	s.Close()
	if resp := getJSON(t, ts, "/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after Close = %d, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, ts, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after Close = %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}
}

// TestBootGate pins the listen-before-load behavior cmd/locec-serve
// relies on.
func TestBootGate(t *testing.T) {
	gate := NewBootGate()
	ts := httptest.NewServer(gate)
	defer ts.Close()

	if resp := getJSONRaw(t, ts, "/healthz"); resp != http.StatusOK {
		t.Fatalf("booting /healthz = %d, want 200", resp)
	}
	for _, path := range []string{"/readyz", "/v1/edge?u=0&v=1", "/v1/stats"} {
		if resp := getJSONRaw(t, ts, path); resp != http.StatusServiceUnavailable {
			t.Fatalf("booting %s = %d, want 503", path, resp)
		}
	}
	s := testServer(t)
	gate.Ready(s.Handler())
	if resp := getJSONRaw(t, ts, "/readyz"); resp != http.StatusOK {
		t.Fatalf("gated /readyz after Ready = %d, want 200", resp)
	}
}

func getJSONRaw(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}
