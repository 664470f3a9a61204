package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"locec/internal/social"
)

// The per-element without/merged pair the incremental engine used before
// spliced replaced it, kept verbatim as the oracle the splice is tested
// against. Nothing outside tests calls them.

// without returns a new store with the given keys removed (keys must be
// sorted ascending; absent keys are ignored). The receiver is untouched.
func (s *EdgeStore) without(removed []uint64) *EdgeStore {
	if s == nil || len(removed) == 0 {
		return s
	}
	keys := make([]uint64, 0, len(s.keys))
	labels := make([]social.Label, 0, len(s.labels))
	probs := make([]float64, 0, len(s.probs))
	r := 0
	for i, k := range s.keys {
		for r < len(removed) && removed[r] < k {
			r++
		}
		if r < len(removed) && removed[r] == k {
			continue
		}
		keys = append(keys, k)
		labels = append(labels, s.labels[i])
		probs = append(probs, s.probs[i*s.classes:(i+1)*s.classes]...)
	}
	return &EdgeStore{keys: keys, labels: labels, probs: probs, classes: s.classes}
}

// merged returns a new store holding the union of s and fresh, with
// fresh's entries replacing s's on key collisions — the linear merge that
// replaced the incremental engine's per-edge map writes. Both inputs are
// untouched; a nil receiver yields fresh itself.
func (s *EdgeStore) merged(fresh *EdgeStore) *EdgeStore {
	if s == nil || len(s.keys) == 0 {
		return fresh
	}
	if fresh.Len() == 0 {
		return s
	}
	if s.classes != fresh.classes {
		panic(fmt.Sprintf("core: edge store merge: %d classes vs %d", s.classes, fresh.classes))
	}
	n := len(s.keys) + len(fresh.keys)
	keys := make([]uint64, 0, n)
	labels := make([]social.Label, 0, n)
	probs := make([]float64, 0, n*s.classes)
	i, j := 0, 0
	for i < len(s.keys) || j < len(fresh.keys) {
		takeFresh := j < len(fresh.keys) &&
			(i >= len(s.keys) || fresh.keys[j] <= s.keys[i])
		if takeFresh {
			if i < len(s.keys) && fresh.keys[j] == s.keys[i] {
				i++ // replaced
			}
			keys = append(keys, fresh.keys[j])
			labels = append(labels, fresh.labels[j])
			probs = append(probs, fresh.probs[j*s.classes:(j+1)*s.classes]...)
			j++
		} else {
			keys = append(keys, s.keys[i])
			labels = append(labels, s.labels[i])
			probs = append(probs, s.probs[i*s.classes:(i+1)*s.classes]...)
			i++
		}
	}
	return &EdgeStore{keys: keys, labels: labels, probs: probs, classes: s.classes}
}

// assertStoresEqual compares two stores with == on every array.
func assertStoresEqual(t *testing.T, what string, got, want *EdgeStore) {
	t.Helper()
	if !slices.Equal(got.Keys(), want.Keys()) {
		t.Fatalf("%s: keys differ\n got %v\nwant %v", what, got.Keys(), want.Keys())
	}
	if !slices.Equal(got.Labels(), want.Labels()) {
		t.Fatalf("%s: labels differ", what)
	}
	if !slices.Equal(got.ProbsFlat(), want.ProbsFlat()) {
		t.Fatalf("%s: probabilities differ", what)
	}
	if got.Len() > 0 && got.Classes() != want.Classes() {
		t.Fatalf("%s: %d classes, want %d", what, got.Classes(), want.Classes())
	}
}

// randomFresh draws a store over the given sorted keys.
func randomFresh(rng *rand.Rand, keys []uint64, classes int) *EdgeStore {
	if len(keys) == 0 {
		return nil
	}
	labels := make([]social.Label, len(keys))
	probs := make([]float64, len(keys)*classes)
	for i := range labels {
		labels[i] = social.Label(rng.Intn(classes))
	}
	for i := range probs {
		probs[i] = rng.Float64()
	}
	es, err := NewEdgeStore(keys, labels, probs, classes)
	if err != nil {
		panic(err)
	}
	return es
}

// TestEdgeStoreSplicedMatchesReference pins spliced(removed, fresh) against
// merged(without(removed), fresh) — the per-element pair it replaced — with
// == on all three arrays, over the shapes the engine produces and the ones
// it should never choke on.
func TestEdgeStoreSplicedMatchesReference(t *testing.T) {
	const classes = 3
	rng := rand.New(rand.NewSource(23))
	base, _, _ := randomStoreAndMaps(rng, 200, classes)
	keys := base.Keys()
	first, last := keys[0], keys[len(keys)-1]
	mid := keys[100]

	check := func(what string, s *EdgeStore, removed, freshKeys []uint64) {
		t.Helper()
		fresh := randomFresh(rng, freshKeys, classes)
		before := &EdgeStore{keys: slices.Clone(s.Keys()), labels: slices.Clone(s.Labels()), probs: slices.Clone(s.ProbsFlat()), classes: s.Classes()}
		got := s.spliced(removed, fresh)
		assertStoresEqual(t, what, got, s.without(removed).merged(fresh))
		assertStoresEqual(t, what+": receiver", s, before) // copy-on-write
		if got.Len() > 0 {
			if _, err := NewEdgeStore(got.Keys(), got.Labels(), got.ProbsFlat(), got.Classes()); err != nil {
				t.Fatalf("%s: result is not a valid store: %v", what, err)
			}
		}
	}
	var empty *EdgeStore
	check("nil receiver, nothing", empty, nil, nil)
	check("nil receiver, fresh", empty, []uint64{5}, []uint64{3, 9})
	check("empty receiver", &EdgeStore{classes: classes}, []uint64{5}, []uint64{3, 9})
	check("nothing to do", base, nil, nil)
	check("only absent removals", base, []uint64{first - 1, mid + 1, last + 7}, nil)
	check("all removed", base, keys, nil)
	check("all removed, fresh inside and outside", base, keys, []uint64{first - 1, mid, last + 1})
	check("all replaced", base, nil, keys)
	check("first key removed", base, []uint64{first}, nil)
	check("last key removed", base, []uint64{last}, nil)
	check("first and last replaced", base, nil, []uint64{first, last})
	check("insert before first and after last", base, nil, []uint64{first - 1, last + 1})
	check("adjacent dirty keys", base, []uint64{keys[10], keys[11], keys[12]}, []uint64{keys[13], keys[14]})
	check("removed and re-predicted in one epoch", base, []uint64{mid}, []uint64{mid})
	check("removed key next to an inserted one", base, []uint64{mid}, []uint64{mid + 1})
	check("single entry removed", randomFresh(rng, []uint64{42}, classes), []uint64{42}, nil)
	check("single entry replaced", randomFresh(rng, []uint64{42}, classes), nil, []uint64{42})

	// Nothing changed: the receiver itself comes back, no copy.
	if base.spliced(nil, nil) != base || base.spliced([]uint64{}, &EdgeStore{classes: classes}) != base {
		t.Fatal("no-op splice copied the store")
	}

	for trial := 0; trial < 200; trial++ {
		s, _, _ := randomStoreAndMaps(rng, 1+rng.Intn(60), classes)
		var removed, freshKeys []uint64
		for _, k := range s.Keys() {
			switch rng.Intn(6) {
			case 0:
				removed = append(removed, k)
			case 1:
				freshKeys = append(freshKeys, k)
			case 2:
				removed = append(removed, k)
				freshKeys = append(freshKeys, k)
			}
		}
		for extra := rng.Intn(4); extra > 0; extra-- {
			removed = append(removed, rng.Uint64()%100000)
			freshKeys = append(freshKeys, rng.Uint64()%100000)
		}
		slices.Sort(removed)
		slices.Sort(freshKeys)
		check("random", s, slices.Compact(removed), slices.Compact(freshKeys))
	}
}

// spliceBench100k is one epoch's store update at the write benchmark's
// scale: 100 000 predicted edges, one removed key, ~60 re-predicted edges
// in two clusters (the two endpoints' rows).
func spliceBench100k() (s *EdgeStore, removed []uint64, fresh *EdgeStore) {
	const n, classes = 100_000, 3
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 7
	}
	s = randomFresh(rng, keys, classes)
	var freshKeys []uint64
	for _, at := range []int{31_000, 72_000} {
		for i := 0; i < 30; i++ {
			freshKeys = append(freshKeys, keys[at+i])
		}
	}
	return s, []uint64{keys[31_010]}, randomFresh(rng, freshKeys, classes)
}

var spliceSink *EdgeStore

func BenchmarkEdgeStoreSplice100k(b *testing.B) {
	s, removed, fresh := spliceBench100k()
	b.ReportAllocs()
	for b.Loop() {
		spliceSink = s.spliced(removed, fresh)
	}
}

// BenchmarkEdgeStoreSpliceReference100k is the same update through the
// per-element pair, for the before/after number.
func BenchmarkEdgeStoreSpliceReference100k(b *testing.B) {
	s, removed, fresh := spliceBench100k()
	b.ReportAllocs()
	for b.Loop() {
		spliceSink = s.without(removed).merged(fresh)
	}
}
