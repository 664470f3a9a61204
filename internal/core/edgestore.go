package core

import (
	"fmt"
	"slices"
	"sort"

	"locec/internal/graph"
	"locec/internal/social"
)

// EdgeStore holds every predicted edge's label and class-probability
// vector in flat parallel arrays sorted by canonical edge key: keys[i]
// owns labels[i] and probs[i*classes:(i+1)*classes]. It replaces the two
// per-edge maps a Result used to carry — a full run over a graph with E
// edges now publishes three slice headers instead of building 2E map
// entries, lookups are a binary search over one contiguous key array, and
// the artifact export/import round-trip is a zero-copy wrap (the artifact
// format already stores exactly these arrays).
//
// Stores are immutable after construction: the incremental engine derives
// new stores with spliced rather than editing in place, so a
// serving snapshot can keep reading an old store while its successor is
// assembled (the same copy-on-write contract the maps had).
type EdgeStore struct {
	keys    []uint64
	labels  []social.Label
	probs   []float64
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
	return &EdgeStore{keys: keys, labels: labels, probs: probs, classes: classes}, nil
}

// newEdgeStoreFromRun builds a store from prediction output in edge-list
// order, taking ownership of the slices. Graph edge enumeration yields
// ascending canonical keys already, so the common case is a wrap; input in
// any other order (defensive) is permuted into sorted order first.
func newEdgeStoreFromRun(edges []graph.Edge, preds []social.Label, probsFlat []float64, classes int) *EdgeStore {
	keys := make([]uint64, len(edges))
	ascending := true
	for i, e := range edges {
		keys[i] = e.Key()
		if i > 0 && keys[i-1] >= keys[i] {
			ascending = false
		}
	}
	if !ascending {
		perm := make([]int, len(keys))
		for i := range perm {
			perm[i] = i
		}
		sort.Slice(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
		sk := make([]uint64, len(keys))
		sl := make([]social.Label, len(preds))
		sp := make([]float64, len(probsFlat))
		for i, j := range perm {
			sk[i] = keys[j]
			sl[i] = preds[j]
			copy(sp[i*classes:(i+1)*classes], probsFlat[j*classes:(j+1)*classes])
		}
		keys, preds, probsFlat = sk, sl, sp
	}
	return &EdgeStore{keys: keys, labels: preds, probs: probsFlat, classes: classes}
}

// Len returns the number of stored edges. Safe on a nil store.
func (s *EdgeStore) Len() int {
	if s == nil {
		return 0
	}
	return len(s.keys)
}

// Classes returns the probability-vector width.
func (s *EdgeStore) Classes() int {
	if s == nil {
		return 0
	}
	return s.classes
}

// Keys returns the sorted key array as a shared read-only view.
func (s *EdgeStore) Keys() []uint64 {
	if s == nil {
		return nil
	}
	return s.keys
}

// Labels returns the label array (parallel to Keys) as a shared read-only
// view.
func (s *EdgeStore) Labels() []social.Label {
	if s == nil {
		return nil
	}
	return s.labels
}

// ProbsFlat returns the flat probability backing (Len()*Classes()) as a
// shared read-only view.
func (s *EdgeStore) ProbsFlat() []float64 {
	if s == nil {
		return nil
	}
	return s.probs
}

// LabelAt returns the label at position i.
func (s *EdgeStore) LabelAt(i int) social.Label { return s.labels[i] }

// ProbsAt returns the probability vector at position i as a view into the
// flat backing.
func (s *EdgeStore) ProbsAt(i int) []float64 {
	return s.probs[i*s.classes : (i+1)*s.classes]
}

// Find returns the position of key and whether it is present. Safe on a
// nil store.
func (s *EdgeStore) Find(key uint64) (int, bool) {
	if s == nil {
		return 0, false
	}
	lo, hi := 0, len(s.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.keys) && s.keys[lo] == key
}

// Label returns the predicted label for key; ok=false (and the zero
// label) when the edge is unknown.
func (s *EdgeStore) Label(key uint64) (social.Label, bool) {
	i, ok := s.Find(key)
	if !ok {
		return 0, false
	}
	return s.labels[i], true
}

// Probs returns the probability vector for key as a view into the flat
// backing, or nil when the edge is unknown.
func (s *EdgeStore) Probs(key uint64) []float64 {
	i, ok := s.Find(key)
	if !ok {
		return nil
	}
	return s.ProbsAt(i)
}

// LabelMap materializes a key→label map — the thin map-shaped accessor
// for consumers that still want one (e.g. the ads simulator). It
// allocates; hot paths should use Find/Label instead.
func (s *EdgeStore) LabelMap() map[uint64]social.Label {
	out := make(map[uint64]social.Label, s.Len())
	if s != nil {
		for i, k := range s.keys {
			out[k] = s.labels[i]
		}
	}
	return out
}

// spliced returns a new store equal to s with the removed keys dropped and
// then fresh's entries inserted, fresh replacing s on key collisions (both
// key lists sorted ascending; removed keys absent from s are ignored). It
// is the incremental engine's one store update per epoch, and costs what
// the epoch touched: each dirty key is located by binary search and the
// untouched runs of keys/labels/probs between them are block-copied, so
// the per-element work is O(dirty · log E) on top of three memmoves. Both
// inputs are untouched; when nothing changes the receiver itself is
// returned, and a nil or empty receiver yields fresh itself.
func (s *EdgeStore) spliced(removed []uint64, fresh *EdgeStore) *EdgeStore {
	if s.Len() == 0 {
		return fresh
	}
	if len(removed) == 0 && fresh.Len() == 0 {
		return s
	}
	if fresh.Len() > 0 && s.classes != fresh.classes {
		panic(fmt.Sprintf("core: edge store splice: %d classes vs %d", s.classes, fresh.classes))
	}
	c := s.classes
	n := len(s.keys) + fresh.Len()
	keys := make([]uint64, 0, n)
	labels := make([]social.Label, 0, n)
	probs := make([]float64, 0, n*c)
	fkeys := fresh.Keys()
	from, r, f := 0, 0, 0 // next unread position of s, removed, fresh
	for r < len(removed) || f < len(fkeys) {
		// The next dirty key is the smaller head of the two sorted lists.
		takeFresh := f < len(fkeys) && (r >= len(removed) || fkeys[f] <= removed[r])
		var k uint64
		if takeFresh {
			k = fkeys[f]
		} else {
			k = removed[r]
		}
		at, found := slices.BinarySearch(s.keys[from:], k)
		at += from
		keys = append(keys, s.keys[from:at]...)
		labels = append(labels, s.labels[from:at]...)
		probs = append(probs, s.probs[from*c:at*c]...)
		from = at
		if found {
			from++ // dropped, or replaced below
		}
		if takeFresh {
			keys = append(keys, k)
			labels = append(labels, fresh.labels[f])
			probs = append(probs, fresh.probs[f*c:(f+1)*c]...)
			f++
		}
		for r < len(removed) && removed[r] <= k {
			r++
		}
	}
	keys = append(keys, s.keys[from:]...)
	labels = append(labels, s.labels[from:]...)
	probs = append(probs, s.probs[from*c:]...)
	return &EdgeStore{keys: keys, labels: labels, probs: probs, classes: c}
}
