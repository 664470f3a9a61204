package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"locec/internal/graph"
	"locec/internal/social"
)

// chunkKeys is the size of a chunk cut from flat arrays. It sets both
// parts of what a splice copies: the chunk table, 16 B (a head and a
// pointer) per chunk, and every chunk a dirty key changes. On the write
// benchmark's graph (≈ 1 600 chunks) an epoch's ≈ 79 re-predicted edges
// scatter over ≈ 38 chunks, ≈ 7 of which change: it copies a ≈ 26 KB
// table and rebuilds ≈ 13 KB of chunks.
const chunkKeys = 64

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
// vector in canonical key order, as a table of chunks: each chunk is an
// edgeRun of at most 2×chunkKeys entries and heads[i] is chunk i's first
// key, so a lookup is a binary search over heads and then inside one chunk.
// Stores are immutable: spliced derives a successor that shares every
// chunk its dirty keys leave unchanged, so readers of the old store are
// never disturbed.
type EdgeStore struct {
	heads   []uint64
	chunks  []*edgeRun
	n       int
	classes int
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

// store cuts r into chunkKeys-sized views: one chunk table, one head
// index and one slab of chunk headers, no copy of the entries.
func (r edgeRun) store(classes int) *EdgeStore {
	n := len(r.keys)
	nc := (n + chunkKeys - 1) / chunkKeys
	s := &EdgeStore{heads: make([]uint64, nc), chunks: make([]*edgeRun, nc), n: n, classes: classes}
	runs := make([]edgeRun, nc) // every chunk header in one slab
	for i := range s.chunks {
		runs[i] = r.view(i*chunkKeys, min((i+1)*chunkKeys, n), classes)
		s.chunks[i], s.heads[i] = &runs[i], r.keys[i*chunkKeys]
	}
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
func gather[T any](s *EdgeStore, width int, col func(*edgeRun) []T) []T {
	if s.Len() == 0 {
		return nil
	}
	out := make([]T, 0, s.n*width)
	for _, r := range s.chunks {
		out = append(out, col(r)...)
	}
	return out
}

// Keys returns the sorted keys as a fresh flat slice.
func (s *EdgeStore) Keys() []uint64 { return gather(s, 1, func(r *edgeRun) []uint64 { return r.keys }) }

// NumChunks returns how many chunks the store holds (0 for a nil store).
func (s *EdgeStore) NumChunks() int {
	if s == nil {
		return 0
	}
	return len(s.chunks)
}

// Chunk returns chunk i's keys, their labels and their probability
// vectors (flat, len(keys)*Classes() wide); chunks 0 … NumChunks()-1 hold
// every entry in ascending key order. The slices are the store's own
// memory, capped: read them, never write them.
func (s *EdgeStore) Chunk(i int) ([]uint64, []social.Label, []float64) {
	r := s.chunks[i]
	return r.keys, r.labels, r.probs
}

// chunkOf returns the chunk that holds key, or would (chunk 0 below the first head).
func (s *EdgeStore) chunkOf(key uint64) int {
	i, found := slices.BinarySearch(s.heads, key)
	if found || i == 0 {
		return i
	}
	return i - 1
}

// Lookup returns key's label and probability vector (a view into the
// store, capped at its length so an append copies instead of overwriting
// the next edge's vector); ok=false, the zero label and nil for an unknown
// edge or a nil store.
func (s *EdgeStore) Lookup(key uint64) (social.Label, []float64, bool) {
	if s.Len() == 0 {
		return 0, nil, false
	}
	r := s.chunks[s.chunkOf(key)]
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
	if s != nil {
		for _, r := range s.chunks {
			for i, k := range r.keys {
				out[k] = r.labels[i]
			}
		}
	}
	return out
}

// group returns the chunk of the next dirty key (removed[r] or fresh.keys[f]),
// where its dirty keys end in both lists, and whether they leave it as is.
func (s *EdgeStore) group(removed []uint64, fresh edgeRun, r, f int) (ci, rEnd, fEnd int, same bool) {
	if r == len(removed) || (f < len(fresh.keys) && fresh.keys[f] < removed[r]) {
		ci = s.chunkOf(fresh.keys[f])
	} else {
		ci = s.chunkOf(removed[r])
	}
	rEnd, fEnd = len(removed), len(fresh.keys)
	if ci < len(s.heads)-1 { // every key before r and f is below heads[ci+1]
		rEnd, _ = slices.BinarySearch(removed, s.heads[ci+1])
		fEnd, _ = slices.BinarySearch(fresh.keys, s.heads[ci+1])
	}
	return ci, rEnd, fEnd, s.chunks[ci].holds(removed[r:rEnd], fresh.view(f, fEnd, s.classes), s.classes)
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
// It copies the chunk table (a pointer per chunk) and rebuilds only the
// chunks their dirty keys change, into one slab per column and one of
// headers; a rebuilt chunk that empties is dropped, one past 2×chunkKeys
// split. Inputs are untouched; a splice that changes no chunk returns s.
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
	size, groups := 0, 0 // the slab holds every changed chunk's entries plus their fresh ones
	for r, f := 0, 0; r < len(removed) || f < len(fresh.keys); {
		ci, rEnd, fEnd, same := s.group(removed, fresh, r, f)
		if !same {
			size, groups = size+len(s.chunks[ci].keys)+fEnd-f, groups+1
		}
		r, f = rEnd, fEnd
	}
	if groups == 0 {
		return s
	}
	slab := edgeRun{make([]uint64, 0, size), make([]social.Label, 0, size), make([]float64, 0, size*c)}
	// A group of m entries becomes at most max(1, m/chunkKeys) pieces, so
	// the rebuilt headers never outgrow (and never move) their slab.
	runs := make([]edgeRun, 0, groups+size/chunkKeys)
	out := &EdgeStore{heads: make([]uint64, 0, len(s.heads)+1), chunks: make([]*edgeRun, 0, len(s.heads)+1), n: s.n, classes: c}
	next := 0 // first chunk of s not yet carried over
	for r, f := 0, 0; r < len(removed) || f < len(fresh.keys); {
		ci, rEnd, fEnd, same := s.group(removed, fresh, r, f)
		if same {
			r, f = rEnd, fEnd
			continue
		}
		out.heads = append(out.heads, s.heads[next:ci]...)
		out.chunks = append(out.chunks, s.chunks[next:ci]...)
		lo := len(slab.keys)
		slab.splice(*s.chunks[ci], removed[r:rEnd], fresh.view(f, fEnd, c), c)
		m := len(slab.keys) - lo
		out.n += m - len(s.chunks[ci].keys)
		pieces := min(m, 1) // an emptied chunk is dropped
		if m > 2*chunkKeys {
			pieces = m / chunkKeys
		}
		for p := range pieces {
			runs = append(runs, slab.view(lo+p*m/pieces, lo+(p+1)*m/pieces, c))
			out.heads = append(out.heads, runs[len(runs)-1].keys[0])
			out.chunks = append(out.chunks, &runs[len(runs)-1])
		}
		next, r, f = ci+1, rEnd, fEnd
	}
	out.heads = append(out.heads, s.heads[next:]...)
	out.chunks = append(out.chunks, s.chunks[next:]...)
	return out
}
