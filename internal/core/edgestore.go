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
// vector in canonical key order, as a chunk table (internal/chunktab)
// whose chunks are edgeRuns behind a pointer. Stores are immutable:
// spliced derives a successor that shares every chunk its dirty keys leave
// unchanged, so readers of the old store are never disturbed.
type EdgeStore struct {
	t       chunktab.Table[*edgeRun]
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

// store wraps r in chunks of chunktab.Keys entries: one slab of chunk
// headers and the chunk table, no copy of the entries.
func (r edgeRun) store(classes int) *EdgeStore {
	runs := make([]edgeRun, 0, (len(r.keys)+chunktab.Keys-1)/chunktab.Keys)
	return &EdgeStore{t: chunktab.Wrap(len(r.keys), func(lo, hi int) (*edgeRun, uint64) {
		runs = append(runs, r.view(lo, hi, classes))
		return &runs[len(runs)-1], r.keys[lo]
	}), classes: classes}
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
	return s.t.Len()
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
	out := make([]T, 0, s.Len()*width)
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
	for r := range s.t.Chunks() {
		fn(r.keys, r.labels, r.probs)
	}
}

// Lookup returns key's label and probability vector (a view into the
// store, capped at its length so an append copies instead of overwriting
// the next edge's vector); ok=false, the zero label and nil for an unknown
// edge or a nil store.
func (s *EdgeStore) Lookup(key uint64) (social.Label, []float64, bool) {
	if s.Len() == 0 {
		return 0, nil, false
	}
	r, _ := s.t.Chunk(key)
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
// It rebuilds only the chunks their dirty keys change, into one slab per
// column and one of chunk headers, and shares the rest (see
// chunktab.Table.Spliced); a chunk whose dirty keys it holds already is
// carried over. Inputs are untouched; a splice that changes no chunk
// returns s.
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
	var slab edgeRun
	var runs []edgeRun
	t, changed := s.t.Spliced(removed, len(fresh.keys), chunktab.Merger[*edgeRun]{
		Key: func(i int) uint64 { return fresh.keys[i] },
		Check: func(r *edgeRun, drop []uint64, lo, hi int) (int, bool) {
			return len(r.keys), r.holds(drop, fresh.view(lo, hi, c), c)
		},
		Reserve: func(entries, chunks int) {
			slab = edgeRun{make([]uint64, 0, entries), make([]social.Label, 0, entries), make([]float64, 0, entries*c)}
			runs = make([]edgeRun, 0, chunks)
		},
		Merge: func(r *edgeRun, drop []uint64, lo, hi int) int {
			at := len(slab.keys)
			slab.splice(*r, drop, fresh.view(lo, hi, c), c)
			return len(slab.keys) - at
		},
		Cut: func(lo, hi int) (*edgeRun, uint64) {
			runs = append(runs, slab.view(lo, hi, c))
			return &runs[len(runs)-1], slab.keys[lo]
		},
	})
	if !changed {
		return s
	}
	return &EdgeStore{t: t, classes: c}
}
