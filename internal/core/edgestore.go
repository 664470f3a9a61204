package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"locec/internal/chunktab"
	"locec/internal/graph"
	"locec/internal/social"
)

// chunkKeys is the size of a chunk cut from flat arrays, and the number of
// chunks a leaf of the chunk table is cut into: chunktab.Keys, with splits
// by chunktab.Pieces. It sets what a splice copies: the top level, 56 B
// per leaf; each leaf holding a changed chunk, 16 B (a head and a pointer)
// per chunk; and every changed chunk. On the write benchmark's graph
// (≈ 1 600 chunks in 25 leaves) an epoch's ≈ 79 re-predicted edges
// scatter over ≈ 38 chunks, ≈ 7 of which change: it copies a 1.4 KB top
// level and ≈ 6 KB of leaves (a flat table was ≈ 26 KB) and rebuilds
// ≈ 13 KB of chunks.
const chunkKeys = chunktab.Keys

// floor returns the index of the last head at or below key, 0 when key is
// below them all.
func floor(heads []uint64, key uint64) int {
	i, found := slices.BinarySearch(heads, key)
	if found || i == 0 {
		return i
	}
	return i - 1
}

// edgeRun is a sorted run of predictions in column layout: keys[i] owns
// labels[i] and probs[i*classes:(i+1)*classes]. Phase III output is one
// run; every chunk of a store is another.
type edgeRun struct {
	keys   []uint64
	labels []social.Label
	probs  []float64
}

// view returns entries [lo, hi) of r, capped so nothing can append past hi.
func (r edgeRun) view(lo, hi, classes int) edgeRun {
	return edgeRun{r.keys[lo:hi:hi], r.labels[lo:hi:hi], r.probs[lo*classes : hi*classes : hi*classes]}
}

// push appends entry i of src.
func (r *edgeRun) push(src edgeRun, i, classes int) {
	r.keys = append(r.keys, src.keys[i])
	r.labels = append(r.labels, src.labels[i])
	r.probs = append(r.probs, src.probs[i*classes:(i+1)*classes]...)
}

// splice appends old with the removed keys dropped and fresh's entries
// inserted, fresh replacing old on a key collision (all three sorted
// ascending; removed keys absent from old are ignored).
func (r *edgeRun) splice(old edgeRun, removed []uint64, fresh edgeRun, classes int) {
	for i, f := 0, 0; i < len(old.keys) || f < len(fresh.keys); {
		if f < len(fresh.keys) && (i == len(old.keys) || fresh.keys[f] <= old.keys[i]) {
			if i < len(old.keys) && old.keys[i] == fresh.keys[f] {
				i++
			}
			r.push(fresh, f, classes)
			f++
			continue
		}
		for len(removed) > 0 && removed[0] < old.keys[i] {
			removed = removed[1:]
		}
		if len(removed) == 0 || removed[0] != old.keys[i] {
			r.push(old, i, classes)
		}
		i++
	}
}

// EdgeStore holds every predicted edge's label and class-probability
// vector in canonical key order, as a two-level table of chunks: each chunk
// is an edgeRun of at most 2×chunkKeys entries, each leaf a table of at
// most 2×chunkKeys chunks, and heads[i] is leaf i's first key. A lookup is
// three binary searches: over heads, inside one leaf, inside one chunk.
// Stores are immutable: spliced derives a successor that shares every leaf
// and chunk its dirty keys leave unchanged, so readers of the old store
// are never disturbed.
type EdgeStore struct {
	heads   []uint64
	leaves  []leaf
	n       int
	classes int
}

// leaf is one run of the chunk table: heads[i] is chunks[i]'s first key.
type leaf struct {
	heads  []uint64
	chunks []*edgeRun
}

// appendLeaves cuts the chunk table heads/chunks into leaves by
// chunktab.Pieces and appends them to s, each a capped view of the table.
func (s *EdgeStore) appendLeaves(heads []uint64, chunks []*edgeRun) {
	m := len(heads)
	k := chunktab.Pieces(m)
	for p := range k {
		lo, hi := p*m/k, (p+1)*m/k
		s.heads = append(s.heads, heads[lo])
		s.leaves = append(s.leaves, leaf{heads[lo:hi:hi], chunks[lo:hi:hi]})
	}
}

// NewEdgeStore wraps the given parallel arrays without copying. keys must
// be strictly increasing, labels the same length, and probs exactly
// len(keys)*classes wide.
func NewEdgeStore(keys []uint64, labels []social.Label, probs []float64, classes int) (*EdgeStore, error) {
	if len(labels) != len(keys) {
		return nil, fmt.Errorf("core: edge store: %d labels for %d keys", len(labels), len(keys))
	}
	if classes <= 0 || len(probs) != len(keys)*classes {
		return nil, fmt.Errorf("core: edge store: %d probabilities for %d keys x %d classes",
			len(probs), len(keys), classes)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return nil, fmt.Errorf("core: edge store: keys not strictly increasing at %d", i)
		}
	}
	return edgeRun{keys, labels, probs}.store(classes), nil
}

// store cuts r into chunkKeys-sized views and their table into leaves:
// one slab of chunk headers, one chunk table, one top level, no copy of
// the entries.
func (r edgeRun) store(classes int) *EdgeStore {
	n := len(r.keys)
	nc := (n + chunkKeys - 1) / chunkKeys
	runs, heads, chunks := make([]edgeRun, nc), make([]uint64, nc), make([]*edgeRun, nc)
	for i := range runs {
		runs[i] = r.view(i*chunkKeys, min((i+1)*chunkKeys, n), classes)
		chunks[i], heads[i] = &runs[i], r.keys[i*chunkKeys]
	}
	s := &EdgeStore{heads: make([]uint64, 0, chunktab.Pieces(nc)), leaves: make([]leaf, 0, chunktab.Pieces(nc)), n: n, classes: classes}
	s.appendLeaves(heads, chunks)
	return s
}

// sortedRun pairs prediction output in edge-list order with its keys, taking
// ownership of the slices; input not in ascending key order is permuted.
func sortedRun(edges []graph.Edge, preds []social.Label, probsFlat []float64, classes int) edgeRun {
	run := edgeRun{make([]uint64, len(edges)), preds, probsFlat}
	ascending := true
	for i, e := range edges {
		run.keys[i] = e.Key()
		ascending = ascending && (i == 0 || run.keys[i-1] < run.keys[i])
	}
	if ascending {
		return run
	}
	perm := make([]int, len(edges))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return run.keys[perm[a]] < run.keys[perm[b]] })
	out := edgeRun{make([]uint64, 0, len(edges)), make([]social.Label, 0, len(edges)), make([]float64, 0, len(probsFlat))}
	for _, j := range perm {
		out.push(run, j, classes)
	}
	return out
}

// Len returns the number of stored edges. Safe on a nil store.
func (s *EdgeStore) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Classes returns the probability-vector width.
func (s *EdgeStore) Classes() int {
	if s == nil {
		return 0
	}
	return s.classes
}

// gather concatenates one column of every chunk (nil for an empty store).
func gather[T any](s *EdgeStore, width int, col func(edgeRun) []T) []T {
	if s.Len() == 0 {
		return nil
	}
	out := make([]T, 0, s.n*width)
	s.ForEachChunk(func(keys []uint64, labels []social.Label, probs []float64) {
		out = append(out, col(edgeRun{keys, labels, probs})...)
	})
	return out
}

// Keys returns the sorted keys as a fresh flat slice.
func (s *EdgeStore) Keys() []uint64 { return gather(s, 1, func(r edgeRun) []uint64 { return r.keys }) }

// ForEachChunk calls fn with every chunk's keys, their labels and their
// probability vectors (flat, len(keys)*Classes() wide), in ascending key
// order; a nil store has none. The slices are the store's own memory,
// capped: read them, never write them.
func (s *EdgeStore) ForEachChunk(fn func(keys []uint64, labels []social.Label, probs []float64)) {
	if s == nil {
		return
	}
	for _, lf := range s.leaves {
		for _, r := range lf.chunks {
			fn(r.keys, r.labels, r.probs)
		}
	}
}

// locate returns the leaf, and the chunk inside it, that hold key or would
// (the first ones below every head).
func (s *EdgeStore) locate(key uint64) (li, ci int) {
	li = floor(s.heads, key)
	return li, floor(s.leaves[li].heads, key)
}

// Lookup returns key's label and probability vector (a view into the
// store, capped at its length so an append copies instead of overwriting
// the next edge's vector); ok=false, the zero label and nil for an unknown
// edge or a nil store.
func (s *EdgeStore) Lookup(key uint64) (social.Label, []float64, bool) {
	if s.Len() == 0 {
		return 0, nil, false
	}
	li, ci := s.locate(key)
	r := s.leaves[li].chunks[ci]
	i, ok := slices.BinarySearch(r.keys, key)
	if !ok {
		return 0, nil, false
	}
	end := (i + 1) * s.classes
	return r.labels[i], r.probs[i*s.classes : end : end], true
}

// Label returns the predicted label for key; ok=false (and the zero
// label) when the edge is unknown.
func (s *EdgeStore) Label(key uint64) (social.Label, bool) {
	l, _, ok := s.Lookup(key)
	return l, ok
}

// Probs returns the probability vector for key as a capped view into the
// store, or nil when the edge is unknown.
func (s *EdgeStore) Probs(key uint64) []float64 {
	_, p, _ := s.Lookup(key)
	return p
}

// LabelMap materializes a key→label map for consumers that want one (e.g.
// the ads simulator); hot paths should use Lookup/Label instead.
func (s *EdgeStore) LabelMap() map[uint64]social.Label {
	out := make(map[uint64]social.Label, s.Len())
	s.ForEachChunk(func(keys []uint64, labels []social.Label, _ []float64) {
		for i, k := range keys {
			out[k] = labels[i]
		}
	})
	return out
}

// group returns the leaf and chunk of the next dirty key (removed[r] or
// fresh.keys[f]), where its dirty keys end in both lists, and whether they
// leave the chunk as is.
func (s *EdgeStore) group(removed []uint64, fresh edgeRun, r, f int) (li, ci, rEnd, fEnd int, same bool) {
	if r == len(removed) || (f < len(fresh.keys) && fresh.keys[f] < removed[r]) {
		li, ci = s.locate(fresh.keys[f])
	} else {
		li, ci = s.locate(removed[r])
	}
	next := s.heads[li+1:] // the heads above chunk ci: the rest of its leaf's, else the next leaves'
	if lf := s.leaves[li]; ci+1 < len(lf.heads) {
		next = lf.heads[ci+1:]
	}
	rEnd, fEnd = len(removed), len(fresh.keys)
	if len(next) > 0 { // every key before r and f is below next[0]
		rEnd, _ = slices.BinarySearch(removed, next[0])
		fEnd, _ = slices.BinarySearch(fresh.keys, next[0])
	}
	return li, ci, rEnd, fEnd, s.leaves[li].chunks[ci].holds(removed[r:rEnd], fresh.view(f, fEnd, s.classes), s.classes)
}

// holds reports whether splicing removed and fresh into r changes nothing:
// each fresh entry is r's in key, label and probability bits (so -0/+0 and
// NaN payloads count as changes), and no removed key is in r.
func (r *edgeRun) holds(removed []uint64, fresh edgeRun, classes int) bool {
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	i := 0
	for f, k := range fresh.keys {
		for i < len(r.keys) && r.keys[i] < k {
			i++
		}
		if i == len(r.keys) || r.keys[i] != k || r.labels[i] != fresh.labels[f] ||
			!slices.EqualFunc(r.probs[i*classes:(i+1)*classes], fresh.probs[f*classes:(f+1)*classes], sameBits) {
			return false
		}
	}
	return !slices.ContainsFunc(removed, func(k uint64) bool {
		_, found := slices.BinarySearch(r.keys, k)
		return found
	})
}

// spliced returns s with the removed keys dropped and fresh's entries
// inserted, fresh winning on a key collision (both sorted ascending;
// absent removals are ignored) — the incremental engine's store update.
// It copies the top level and rebuilds only the chunks their dirty keys
// change and the leaves that hold them, into one slab per column, one of
// chunk headers and one per leaf-table column; every other leaf and chunk
// is shared. A rebuilt chunk or leaf that empties is dropped, one past
// 2×chunkKeys split (see chunktab.Pieces). Inputs are untouched; a splice
// that changes no chunk returns s.
func (s *EdgeStore) spliced(removed []uint64, fresh edgeRun) *EdgeStore {
	if len(fresh.keys) == 0 && (len(removed) == 0 || s.Len() == 0) {
		return s
	}
	if s.Len() == 0 {
		return fresh.store(len(fresh.probs) / len(fresh.keys))
	}
	c := s.classes
	if len(fresh.probs) != len(fresh.keys)*c {
		panic(fmt.Sprintf("core: edge store splice: %d probabilities for %d keys x %d classes",
			len(fresh.probs), len(fresh.keys), c))
	}
	// The slabs hold every changed chunk's entries plus their fresh ones,
	// and the chunk tables of the leaves holding them.
	size, groups, slots, last := 0, 0, 0, -1
	for r, f := 0, 0; r < len(removed) || f < len(fresh.keys); {
		li, ci, rEnd, fEnd, same := s.group(removed, fresh, r, f)
		if !same {
			size, groups = size+len(s.leaves[li].chunks[ci].keys)+fEnd-f, groups+1
			if li != last {
				slots, last = slots+len(s.leaves[li].chunks), li
			}
		}
		r, f = rEnd, fEnd
	}
	if groups == 0 {
		return s
	}
	slab := edgeRun{make([]uint64, 0, size), make([]social.Label, 0, size), make([]float64, 0, size*c)}
	// A group of m entries becomes at most max(1, m/chunkKeys) pieces, so
	// the rebuilt headers never outgrow (and never move) their slab, nor
	// the rebuilt leaves their tables.
	runs := make([]edgeRun, 0, groups+size/chunkKeys)
	heads, chunks := make([]uint64, 0, slots+size/chunkKeys), make([]*edgeRun, 0, slots+size/chunkKeys)
	out := &EdgeStore{heads: make([]uint64, 0, len(s.heads)+1), leaves: make([]leaf, 0, len(s.leaves)+1), n: s.n, classes: c}
	// cur is the leaf being rebuilt, from heads[lo] on; next is its first
	// chunk not yet carried over, done the first leaf of s not yet handled.
	cur, lo, next, done := -1, 0, 0, 0
	finish := func(upto int) {
		if cur >= 0 {
			heads, chunks = append(heads, s.leaves[cur].heads[next:]...), append(chunks, s.leaves[cur].chunks[next:]...)
			out.appendLeaves(heads[lo:], chunks[lo:])
		}
		out.heads, out.leaves = append(out.heads, s.heads[done:upto]...), append(out.leaves, s.leaves[done:upto]...)
	}
	for r, f := 0, 0; r < len(removed) || f < len(fresh.keys); {
		li, ci, rEnd, fEnd, same := s.group(removed, fresh, r, f)
		if same {
			r, f = rEnd, fEnd
			continue
		}
		if li != cur {
			finish(li)
			cur, lo, next, done = li, len(heads), 0, li+1
		}
		lf := s.leaves[li]
		heads, chunks = append(heads, lf.heads[next:ci]...), append(chunks, lf.chunks[next:ci]...)
		at := len(slab.keys)
		slab.splice(*lf.chunks[ci], removed[r:rEnd], fresh.view(f, fEnd, c), c)
		m := len(slab.keys) - at
		out.n += m - len(lf.chunks[ci].keys)
		k := chunktab.Pieces(m)
		for p := range k {
			runs = append(runs, slab.view(at+p*m/k, at+(p+1)*m/k, c))
			heads, chunks = append(heads, runs[len(runs)-1].keys[0]), append(chunks, &runs[len(runs)-1])
		}
		next, r, f = ci+1, rEnd, fEnd
	}
	finish(len(s.leaves))
	return out
}
