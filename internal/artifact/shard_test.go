package artifact_test

import (
	"bytes"
	"path/filepath"
	"slices"
	"testing"

	"locec/internal/artifact"
	"locec/internal/graph"
	"locec/internal/ring"
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
