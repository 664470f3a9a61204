package artifact

// Shard cutting: split one full .locec snapshot into N per-shard
// artifacts so each member of a serving fleet cold-starts loading only
// its slice. Ownership follows internal/ring's consistent hash, the same
// function the router uses to pick a shard per request and each shard
// server uses to refuse misrouted requests — three parties agreeing
// through determinism, not coordination.
//
// A cut shard keeps:
//
//   - the GLOBAL node count (IDs keep their meaning; range checks and the
//     dense ego index still work), with ego results only for owned nodes
//     — every other slot is an explicit empty placeholder
//   - graph edges and predictions only for edges whose canonical smaller
//     endpoint the shard owns
//   - the Phase II model blob and Phase III combiner verbatim (they are
//     O(model), not O(graph), and let a shard classify fresh communities)
//
// The raw dataset section is never copied: shards serve read-only, and
// mutation traffic belongs to trained (or checkpoint-restored) servers.
// Cuts partition the full artifact exactly — every ego and every edge
// lands on exactly one shard — which the shard tests pin.

import (
	"fmt"
	"strings"

	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/ring"
	"locec/internal/social"
)

// CutShards splits a full artifact into n per-shard artifacts, indexed by
// shard. The source must not itself be a shard.
func CutShards(a *Artifact, n int) ([]*Artifact, error) {
	if n <= 0 {
		return nil, fmt.Errorf("artifact: cut into %d shards, want >= 1", n)
	}
	if a.Meta().Sharded() {
		return nil, fmt.Errorf("artifact: already shard %d/%d; cut from the full artifact",
			a.Meta().ShardIndex, a.Meta().ShardCount)
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
		return nil, fmt.Errorf("artifact: %w", err)
	}
	meta := a.Meta()
	out := make([]*Artifact, n)
	for s := 0; s < n; s++ {
		shard, err := cutOne(g, ex, rg, s, meta)
		if err != nil {
			return nil, fmt.Errorf("artifact: shard %d/%d: %w", s, n, err)
		}
		out[s] = shard
	}
	return out, nil
}

// cutOne builds shard s's artifact.
func cutOne(g *graph.Graph, ex *core.Export, rg *ring.Ring, s int, meta Meta) (*Artifact, error) {
	nn := g.NumNodes()

	// Graph: the CSR restricted to owned edges. Both directions of a kept
	// edge survive, so the result is a valid (sparser) undirected graph
	// over the full node range.
	offsets := make([]int32, nn+1)
	var adj []graph.NodeID
	for u := 0; u < nn; u++ {
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			if rg.OwnerEdge(graph.NodeID(u), v) == s {
				adj = append(adj, v)
			}
		}
		offsets[u+1] = int32(len(adj))
	}
	gs, err := graph.NewFromCSR(offsets, adj)
	if err != nil {
		return nil, fmt.Errorf("cut graph: %w", err)
	}

	// Egos: owned results verbatim, explicit empty placeholders elsewhere
	// (the dense node-indexed layout is an artifact invariant).
	egos := make([]*core.EgoResult, nn)
	for u := 0; u < nn; u++ {
		if rg.OwnerNode(graph.NodeID(u)) == s {
			egos[u] = ex.Egos[u]
		} else {
			egos[u] = &core.EgoResult{Ego: graph.NodeID(u)}
		}
	}

	// Predictions: the owned-edge subset, order (and therefore the
	// strictly-increasing key invariant) preserved.
	st, classes := ex.Edges, ex.Edges.Classes()
	keys := make([]uint64, 0, st.Len()/rg.Shards()+1)
	labels := make([]social.Label, 0, cap(keys))
	probs := make([]float64, 0, cap(keys)*classes)
	for ci := range st.NumChunks() {
		ck, cl, cp := st.Chunk(ci)
		for i, k := range ck {
			if e := graph.EdgeFromKey(k); rg.OwnerEdge(e.U, e.V) == s {
				keys, labels = append(keys, k), append(labels, cl[i])
				probs = append(probs, cp[i*classes:(i+1)*classes]...)
			}
		}
	}
	edges, err := core.NewEdgeStore(keys, labels, probs, classes)
	if err != nil {
		return nil, err
	}
	sub := &core.Export{
		ClassifierName: ex.ClassifierName,
		Egos:           egos,
		Edges:          edges,
		Model:          ex.Model,
		Combiner:       ex.Combiner,
		Times:          ex.Times,
	}

	art, err := New(gs, sub, meta.Seed)
	if err != nil {
		return nil, err
	}
	art.meta.ShardIndex = s
	art.meta.ShardCount = rg.Shards()
	art.meta.CreatedAtUnix = meta.CreatedAtUnix
	return art, nil
}

// ShardPath names shard i of n relative to a base artifact path:
// "model.locec" -> "model-2-of-4.locec". The cutter writes these names
// and `locec-serve -shard i/n` resolves them, so a fleet's launch scripts
// only ever mention the base path.
func ShardPath(base string, i, n int) string {
	stem, ext := base, ""
	if j := strings.LastIndex(base, ".locec"); j >= 0 && j == len(base)-len(".locec") {
		stem, ext = base[:j], ".locec"
	}
	return fmt.Sprintf("%s-%d-of-%d%s", stem, i, n, ext)
}
