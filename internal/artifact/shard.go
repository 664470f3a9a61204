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
//
// The cut hashes every node's owner once and fills all shards in one pass
// over each section: an owned ego's record is copied as it is, and the
// graph CSR and prediction runs are written as section bytes. A shard has
// decoded no section, so Save copies its bytes.

import (
	"encoding/binary"
	"fmt"
	"strings"

	"locec/internal/graph"
	"locec/internal/ring"
)

// CutShards splits a loaded (not New-built) full artifact into n
// per-shard artifacts, indexed by shard; the source must not be a shard.
// It checks what Export checks, so a cut fails where Export would.
func CutShards(a *Artifact, n int) ([]*Artifact, error) {
	if n <= 0 {
		return nil, fmt.Errorf("artifact: cut into %d shards, want >= 1", n)
	}
	if a.Meta().Sharded() {
		return nil, fmt.Errorf("artifact: already shard %d/%d; cut from the full artifact",
			a.Meta().ShardIndex, a.Meta().ShardCount)
	}
	rg, err := ring.New(n)
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	g, err := a.Graph()
	if err != nil {
		return nil, err
	}
	ex, err := a.decodeTail()
	if err != nil {
		return nil, err
	}
	owner := make([]int, g.NumNodes())
	for u := range owner {
		owner[u] = rg.OwnerNode(graph.NodeID(u))
	}
	// Egos: a node's record on its owner, and on every other shard the
	// 12-byte record of an empty result (its id and two zero counts).
	w, err := newEgoWalker(a.raw[secEgos], a.meta.FormatVersion)
	if err == nil && w.n != len(owner) {
		err = fmt.Errorf("%d entries, meta declares %d nodes", w.n, len(owner))
	}
	if err != nil {
		return nil, fmt.Errorf("artifact: egos section: %w", err)
	}
	egos, comms := make([][]byte, n), make([]int, n)
	for s := range egos {
		egos[s] = appendU64(make([]byte, 0, 8+12*w.n+len(w.c.b)/n), uint64(w.n))
	}
	for u, s := range owner {
		rec, err := w.next()
		if err != nil {
			return nil, fmt.Errorf("artifact: egos section: %w", err)
		}
		for t := range egos {
			if t != s {
				egos[t] = append(appendU32(egos[t], uint32(u)), 0, 0, 0, 0, 0, 0, 0, 0)
			}
		}
		egos[s], comms[s] = append(egos[s], rec...), comms[s]+w.comms
	}
	if err := w.c.err("egos"); err != nil {
		return nil, fmt.Errorf("artifact: egos section: %w", err)
	}
	graphs := cutGraph(g, owner, n)
	preds := cutPreds(a.raw[secPreds], n, func(k uint64) int {
		if u := min(k>>32, k&0xffffffff); u < uint64(len(owner)) {
			return owner[u]
		}
		return rg.OwnerEdge(uint32(k>>32), uint32(k)) // a key naming a node beyond the graph
	})
	var combiner []byte
	if ex.Combiner != nil {
		if combiner, err = encodeCombiner(ex.Combiner); err != nil {
			return nil, fmt.Errorf("artifact: encode combiner: %w", err)
		}
	}
	out := make([]*Artifact, n)
	for s := range out {
		meta := exportMeta(ex, len(owner), int(getU64(graphs[s][8:]))/2, comms[s], a.meta.Seed)
		meta.ShardIndex, meta.ShardCount, meta.CreatedAtUnix = s, n, a.meta.CreatedAtUnix
		out[s] = &Artifact{meta: meta, raw: map[string][]byte{
			secGraph: graphs[s], secEgos: egos[s], secModel: ex.Model, secCombiner: combiner, secPreds: preds[s]}}
	}
	return out, nil
}

// cutGraph writes each shard's graph section: the CSR over every node of
// the edges the shard owns, both directions of each.
func cutGraph(g *graph.Graph, owner []int, shards int) [][]byte {
	nn := g.NumNodes()
	offsets, adj := make([][]byte, shards), make([][]byte, shards)
	for s := range offsets {
		offsets[s] = appendU32(make([]byte, 16, 16+4*(nn+1)), 0) // the two counts follow below
	}
	for u := range nn {
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			s := owner[min(graph.NodeID(u), v)]
			adj[s] = appendU32(adj[s], v)
		}
		for s := range offsets {
			offsets[s] = appendU32(offsets[s], uint32(len(adj[s])/4))
		}
	}
	for s, sec := range offsets {
		binary.LittleEndian.PutUint64(sec, uint64(nn))
		binary.LittleEndian.PutUint64(sec[8:], uint64(len(adj[s])/4))
		offsets[s] = append(sec, adj[s]...)
	}
	return offsets
}

// cutPreds writes each shard's preds section from the checked source
// section: the key, label and probability row of every edge it owns, in
// ascending key order, appended in place into sections sized by a count.
func cutPreds(b []byte, shards int, owner func(key uint64) int) [][]byte {
	m, classes := int(getU64(b)), int(getU32(b[8:]))
	keys, labels, probs := b[12:12+8*m], b[12+8*m:12+9*m], b[12+9*m:]
	row, count := 8*classes, make([]int, shards)
	for i := range m {
		count[owner(getU64(keys[8*i:]))]++
	}
	out, k, l, p := make([][]byte, shards), make([][]byte, shards), make([][]byte, shards), make([][]byte, shards)
	for s, c := range count {
		out[s] = make([]byte, 12+c*(9+row))
		binary.LittleEndian.PutUint64(out[s], uint64(c))
		binary.LittleEndian.PutUint32(out[s][8:], uint32(classes))
		k[s], l[s], p[s] = out[s][12:12], out[s][12+8*c:12+8*c], out[s][12+9*c:12+9*c]
	}
	for i := range m {
		s := owner(getU64(keys[8*i:]))
		k[s], l[s], p[s] = append(k[s], keys[8*i:8*i+8]...), append(l[s], labels[i]), append(p[s], probs[row*i:row*(i+1)]...)
	}
	return out
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
