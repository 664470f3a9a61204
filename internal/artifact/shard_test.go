package artifact_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/ring"
	"locec/internal/social"
	"locec/internal/testutil"
)

// TestCutShardsPartition pins the sharding contract the router depends
// on: across a cut, every node's real ego result lives on exactly one
// shard (the ring owner), every predicted edge lives on exactly one
// shard, and nothing is lost or duplicated.
func TestCutShardsPartition(t *testing.T) {
	ds, _, data := saved(t, "xgb")
	full, err := artifact.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	fullEx, err := full.Export()
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	shards, err := artifact.CutShards(full, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != n {
		t.Fatalf("got %d shards, want %d", len(shards), n)
	}
	rg := ring.MustNew(n)
	nn := ds.G.NumNodes()

	egoOwners := make([]int, nn) // count of shards holding a real ego per node
	for i := range egoOwners {
		egoOwners[i] = 0
	}
	edgeOwners := map[uint64]int{}
	totalEdges := 0

	for s, sh := range shards {
		meta := sh.Meta()
		if !meta.Sharded() || meta.ShardIndex != s || meta.ShardCount != n {
			t.Fatalf("shard %d meta stamp = %d/%d sharded=%v", s, meta.ShardIndex, meta.ShardCount, meta.Sharded())
		}
		if meta.Nodes != nn {
			t.Fatalf("shard %d declares %d nodes, want the GLOBAL count %d", s, meta.Nodes, nn)
		}
		ex, err := sh.Export()
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.Egos) != nn {
			t.Fatalf("shard %d has %d ego slots, want %d", s, len(ex.Egos), nn)
		}
		for u, er := range ex.Egos {
			if er.Ego != graph.NodeID(u) {
				t.Fatalf("shard %d ego slot %d belongs to node %d", s, u, er.Ego)
			}
			real := len(er.Comms) > 0 || len(er.Members) > 0
			if real {
				if rg.OwnerNode(graph.NodeID(u)) != s {
					t.Fatalf("shard %d holds node %d's ego but the ring owner is %d",
						s, u, rg.OwnerNode(graph.NodeID(u)))
				}
				egoOwners[u]++
			}
		}
		for _, k := range ex.Edges.Keys() {
			e := graph.EdgeFromKey(k)
			if rg.OwnerEdge(e.U, e.V) != s {
				t.Fatalf("shard %d holds edge %d-%d but the ring owner is %d",
					s, e.U, e.V, rg.OwnerEdge(e.U, e.V))
			}
			edgeOwners[k]++
			// Spot-check labels and probabilities survived the cut intact.
			l, p, _ := ex.Edges.Lookup(k)
			fl, fp, ok := fullEx.Edges.Lookup(k)
			if !ok {
				t.Fatalf("shard %d edge key %d not in the full artifact", s, k)
			}
			if l != fl {
				t.Fatalf("shard %d edge %d: prediction %v != full %v", s, k, l, fl)
			}
			if !slices.Equal(p, fp) {
				t.Fatalf("shard %d edge %d: probabilities %v != full %v", s, k, p, fp)
			}
		}
		totalEdges += ex.Edges.Len()
		g, err := sh.Graph()
		if err != nil {
			t.Fatal(err)
		}
		if g.NumNodes() != nn {
			t.Fatalf("shard %d graph has %d nodes, want %d", s, g.NumNodes(), nn)
		}
		if g.NumEdges() != ex.Edges.Len() {
			t.Fatalf("shard %d graph has %d edges but %d predictions", s, g.NumEdges(), ex.Edges.Len())
		}
	}

	// Every node with a non-trivial ego in the full artifact appears on
	// exactly one shard; no node appears on more than one.
	for u := 0; u < nn; u++ {
		er := fullEx.Egos[u]
		real := len(er.Comms) > 0 || len(er.Members) > 0
		if real && egoOwners[u] != 1 {
			t.Fatalf("node %d's ego held by %d shards, want exactly 1", u, egoOwners[u])
		}
		if !real && egoOwners[u] > 1 {
			t.Fatalf("trivial ego %d held by %d shards", u, egoOwners[u])
		}
	}
	// Edges partition exactly.
	if totalEdges != fullEx.Edges.Len() {
		t.Fatalf("shards hold %d edges in total, full artifact has %d", totalEdges, fullEx.Edges.Len())
	}
	for k, c := range edgeOwners {
		if c != 1 {
			t.Fatalf("edge key %d held by %d shards", k, c)
		}
	}
}

// TestCutShardsRoundTrip pins that a cut shard survives save/load with
// its shard stamp and contents intact — the form the fleet boots from.
func TestCutShardsRoundTrip(t *testing.T) {
	_, _, data := saved(t, "xgb")
	full, err := artifact.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	shards, err := artifact.CutShards(full, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for s, sh := range shards {
		path := filepath.Join(dir, artifact.ShardPath("model.locec", s, 2))
		if err := sh.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		back, err := artifact.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		meta := back.Meta()
		if meta.ShardIndex != s || meta.ShardCount != 2 {
			t.Fatalf("reloaded shard stamp %d/%d, want %d/2", meta.ShardIndex, meta.ShardCount, s)
		}
		want, err := sh.Export()
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Export()
		if err != nil {
			t.Fatal(err)
		}
		if got.Edges.Len() != want.Edges.Len() {
			t.Fatalf("shard %d: reloaded %d edges, want %d", s, got.Edges.Len(), want.Edges.Len())
		}
	}
}

// TestCutShardsRejects pins input validation: zero shards, and cutting a
// shard again.
func TestCutShardsRejects(t *testing.T) {
	_, _, data := saved(t, "xgb")
	full, err := artifact.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := artifact.CutShards(full, 0); err == nil {
		t.Fatal("CutShards(_, 0) succeeded")
	}
	shards, err := artifact.CutShards(full, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := artifact.CutShards(shards[0], 2); err == nil {
		t.Fatal("re-cutting a shard succeeded")
	}
}

func TestShardPath(t *testing.T) {
	cases := []struct{ base, want string }{
		{"model.locec", "model-1-of-4.locec"},
		{"dir/model.locec", "dir/model-1-of-4.locec"},
		{"model", "model-1-of-4"},
	}
	for _, c := range cases {
		if got := artifact.ShardPath(c.base, 1, 4); got != c.want {
			t.Fatalf("ShardPath(%q, 1, 4) = %q, want %q", c.base, got, c.want)
		}
	}
}

// referenceCut is the cut CutShards replaced, kept as its byte-for-byte
// oracle: decode the whole export, filter graph, egos and predictions
// shard by shard through the ring, and build each shard with New.
func referenceCut(a *artifact.Artifact, n int) ([]*artifact.Artifact, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cut into %d shards", n)
	}
	if a.Meta().Sharded() {
		return nil, fmt.Errorf("already a shard")
	}
	g, err := a.Graph()
	if err != nil {
		return nil, err
	}
	ex, err := a.Export()
	if err != nil {
		return nil, err
	}
	rg, err := ring.New(n)
	if err != nil {
		return nil, err
	}
	nn := g.NumNodes()
	out := make([]*artifact.Artifact, n)
	for s := range out {
		offsets := make([]int32, nn+1)
		var adj []graph.NodeID
		for u := range nn {
			for _, v := range g.Neighbors(graph.NodeID(u)) {
				if rg.OwnerEdge(graph.NodeID(u), v) == s {
					adj = append(adj, v)
				}
			}
			offsets[u+1] = int32(len(adj))
		}
		gs, err := graph.NewFromCSR(offsets, adj)
		if err != nil {
			return nil, err
		}
		egos := make([]*core.EgoResult, nn)
		for u := range nn {
			if rg.OwnerNode(graph.NodeID(u)) == s {
				egos[u] = ex.Egos[u]
			} else {
				egos[u] = &core.EgoResult{Ego: graph.NodeID(u)}
			}
		}
		st, classes := ex.Edges, ex.Edges.Classes()
		var keys []uint64
		var labels []social.Label
		var probs []float64
		st.ForEachChunk(func(ck []uint64, cl []social.Label, cp []float64) {
			for i, k := range ck {
				if e := graph.EdgeFromKey(k); rg.OwnerEdge(e.U, e.V) == s {
					keys, labels = append(keys, k), append(labels, cl[i])
					probs = append(probs, cp[i*classes:(i+1)*classes]...)
				}
			}
		})
		edges, err := core.NewEdgeStore(keys, labels, probs, classes)
		if err != nil {
			return nil, err
		}
		sub := *ex
		sub.Egos, sub.Edges = egos, edges
		art, err := artifact.New(gs, &sub, a.Meta().Seed)
		if err != nil {
			return nil, err
		}
		art.StampShard(s, n)
		art.StampCreated(time.Unix(a.Meta().CreatedAtUnix, 0))
		out[s] = art
	}
	return out, nil
}

// savedCut loads data, cuts it n ways with cut and returns each shard's
// Save bytes.
func savedCut(data []byte, n int, cut func(*artifact.Artifact, int) ([]*artifact.Artifact, error)) ([][]byte, error) {
	a, err := artifact.LoadBytes(data)
	if err != nil {
		return nil, err
	}
	shards, err := cut(a, n)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(shards))
	for i, sh := range shards {
		var buf bytes.Buffer
		if err := sh.Save(&buf); err != nil {
			return nil, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// cutsAgree fails t unless CutShards and the reference cut both refuse
// data or both cut it n ways into shards that save to the same bytes. It
// returns the reference cut's error.
func cutsAgree(t *testing.T, data []byte, n int) error {
	t.Helper()
	got, errGot := savedCut(data, n, artifact.CutShards)
	want, errWant := savedCut(data, n, referenceCut)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("%d shards: CutShards error %v, reference cut error %v", n, errGot, errWant)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%d shards: shard %d saves to %d bytes, the reference shard to %d", n, i, len(got[i]), len(want[i]))
		}
	}
	return errWant
}

// TestCutShardsMatchesReference: for every fixture and shard count, each
// shard cut from the section bytes saves to the reference cut's bytes —
// the version 1 and 2 files included, whose egos lose r_C on the way, and
// the golden with a dataset, which no shard keeps.
func TestCutShardsMatchesReference(t *testing.T) {
	for name, data := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{1, 2, 3, 7} {
				if err := cutsAgree(t, data, n); err != nil {
					t.Fatalf("%d shards: %v", n, err)
				}
			}
		})
	}
}

// FuzzCutShards holds CutShards to the reference cut on FuzzArtifact's
// seed corpus — the corruption diet of an artifact with a dataset section,
// and the checked-in entries — at one to five shards: both refuse an
// input or both cut it into the same bytes, and neither panics. Inputs are
// resealed, as FuzzArtifact's are, so mutants reach the section bytes.
func FuzzCutShards(f *testing.F) {
	seed := fuzzSeed(f)
	seeds := append([][]byte{seed}, testutil.Corruptions(seed)...)
	entries, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzArtifact", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range entries {
		for range 5 {
			seeds = append(seeds, corpusEntry(f, path))
		}
	}
	for i, b := range seeds {
		f.Add(b, uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		_ = cutsAgree(t, reseal(data), 1+int(n%5))
	})
}

// corpusEntry reads the bytes of a checked-in fuzz corpus file.
func corpusEntry(t testing.TB, path string) []byte {
	t.Helper()
	corpus, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(string(corpus), "[]byte(")
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(data)
}
