package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"locec/internal/graph"
	"locec/internal/social"
)

// Labels returns the labels, parallel to Keys, as a fresh flat slice.
func (s *EdgeStore) Labels() []social.Label {
	return gather(s, 1, func(r edgeRun) []social.Label { return r.labels })
}

// ProbsFlat returns the probability vectors, Len()*Classes() wide and
// parallel to Keys, as a fresh flat slice.
func (s *EdgeStore) ProbsFlat() []float64 {
	return gather(s, s.Classes(), func(r edgeRun) []float64 { return r.probs })
}

// randomStoreAndMaps builds an EdgeStore plus the two plain maps the
// Result type used to carry, from the same random draw — the oracle for
// the map-equivalence pinning tests below.
func randomStoreAndMaps(rng *rand.Rand, n, classes int) (*EdgeStore, map[uint64]social.Label, map[uint64][]float64) {
	keySet := map[uint64]bool{}
	for len(keySet) < n {
		keySet[rng.Uint64()%100000] = true
	}
	keys := make([]uint64, 0, n)
	for k := range keySet {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	labels := make([]social.Label, n)
	probs := make([]float64, n*classes)
	lm := make(map[uint64]social.Label, n)
	pm := make(map[uint64][]float64, n)
	for i, k := range keys {
		labels[i] = social.Label(rng.Intn(classes))
		v := probs[i*classes : (i+1)*classes]
		for c := range v {
			v[c] = rng.Float64()
		}
		lm[k] = labels[i]
		pm[k] = slices.Clone(v)
	}
	es, err := NewEdgeStore(keys, labels, probs, classes)
	if err != nil {
		panic(err)
	}
	return es, lm, pm
}

// assertStoreMatchesMaps checks every accessor against the map oracle.
func assertStoreMatchesMaps(t *testing.T, es *EdgeStore, lm map[uint64]social.Label, pm map[uint64][]float64) {
	t.Helper()
	if es.Len() != len(lm) {
		t.Fatalf("Len = %d, want %d", es.Len(), len(lm))
	}
	for k, wantL := range lm {
		l, ok := es.Label(k)
		if !ok || l != wantL {
			t.Fatalf("Label(%d) = %v,%v, want %v,true", k, l, ok, wantL)
		}
		if got := es.Probs(k); !slices.Equal(got, pm[k]) {
			t.Fatalf("Probs(%d) = %v, want %v", k, got, pm[k])
		}
	}
	labels, probs, c := es.Labels(), es.ProbsFlat(), es.Classes()
	for i, k := range es.Keys() {
		if labels[i] != lm[k] {
			t.Fatalf("Labels()[%d] = %v, want %v", i, labels[i], lm[k])
		}
		if !slices.Equal(probs[i*c:(i+1)*c], pm[k]) {
			t.Fatalf("ProbsFlat() row %d mismatch", i)
		}
	}
	gotLM := es.LabelMap()
	if len(gotLM) != len(lm) {
		t.Fatalf("LabelMap has %d entries, want %d", len(gotLM), len(lm))
	}
	for k, v := range lm {
		if gotLM[k] != v {
			t.Fatalf("LabelMap[%d] = %v, want %v", k, gotLM[k], v)
		}
	}
}

// TestEdgeStoreMatchesMapSemantics pins the store against the map-based
// representation it replaced: every lookup, miss, removal and merge must
// behave exactly as the equivalent map operations did.
func TestEdgeStoreMatchesMapSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const classes = 3
	es, lm, pm := randomStoreAndMaps(rng, 500, classes)
	assertStoreMatchesMaps(t, es, lm, pm)

	// Misses behave like map misses.
	for i := 0; i < 200; i++ {
		k := rng.Uint64()
		if _, present := lm[k]; present {
			continue
		}
		if l, ok := es.Label(k); ok {
			t.Fatalf("Label(%d) = %v for absent key", k, l)
		}
		if p := es.Probs(k); p != nil {
			t.Fatalf("Probs(%d) = %v for absent key", k, p)
		}
	}

	// without == map delete over a random subset (plus absent keys, which
	// must be ignored).
	removed := []uint64{}
	for _, k := range es.Keys() {
		if rng.Float64() < 0.3 {
			removed = append(removed, k)
		}
	}
	removed = append(removed, 999999, 1000001) // absent, above the range
	sort.Slice(removed, func(a, b int) bool { return removed[a] < removed[b] })
	sub := es.without(removed)
	lm2 := map[uint64]social.Label{}
	pm2 := map[uint64][]float64{}
	for k, v := range lm {
		lm2[k] = v
		pm2[k] = pm[k]
	}
	for _, k := range removed {
		delete(lm2, k)
		delete(pm2, k)
	}
	assertStoreMatchesMaps(t, sub, lm2, pm2)
	// The receiver must be untouched (copy-on-write contract).
	assertStoreMatchesMaps(t, es, lm, pm)

	// merged == map insert-or-replace with a store that overlaps half the
	// surviving keys and adds new ones.
	fkeys := []uint64{}
	for i, k := range sub.Keys() {
		if i%2 == 0 {
			fkeys = append(fkeys, k)
		}
	}
	fkeys = append(fkeys, 100001, 100003) // new keys above the range
	slices.Sort(fkeys)
	flabels := make([]social.Label, len(fkeys))
	fprobs := make([]float64, len(fkeys)*classes)
	for i := range fkeys {
		flabels[i] = social.Label(rng.Intn(classes))
		for c := 0; c < classes; c++ {
			fprobs[i*classes+c] = rng.Float64()
		}
	}
	fresh, err := NewEdgeStore(fkeys, flabels, fprobs, classes)
	if err != nil {
		t.Fatal(err)
	}
	got := sub.merged(fresh)
	for i, k := range fkeys {
		lm2[k] = flabels[i]
		pm2[k] = slices.Clone(fprobs[i*classes : (i+1)*classes])
	}
	assertStoreMatchesMaps(t, got, lm2, pm2)
}

func TestEdgeStoreNilSafety(t *testing.T) {
	var s *EdgeStore
	if s.Len() != 0 || s.Classes() != 0 || s.Keys() != nil || s.Labels() != nil || s.ProbsFlat() != nil {
		t.Fatal("nil store accessors not zero")
	}
	if _, _, ok := s.Lookup(7); ok {
		t.Fatal("nil store Lookup hit")
	}
	if _, ok := s.Label(7); ok {
		t.Fatal("nil store Label hit")
	}
	if p := s.Probs(7); p != nil {
		t.Fatal("nil store Probs hit")
	}
	if m := s.LabelMap(); len(m) != 0 {
		t.Fatal("nil store LabelMap non-empty")
	}
	if got := s.without([]uint64{1}); got != nil {
		t.Fatal("nil store without != nil")
	}
	fresh, err := NewEdgeStore([]uint64{3}, []social.Label{1}, []float64{1, 0, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.merged(fresh); got != fresh {
		t.Fatal("nil store merged != fresh")
	}
	if got := s.spliced(nil, edgeRun{}); got != nil {
		t.Fatal("nil store spliced with nothing != nil")
	}
}

// TestEdgeStoreProbsAreCapped: a probability vector is capped at its
// length, so appending to the one a lookup returned copies it instead of
// overwriting the next edge's vector in the shared slab.
func TestEdgeStoreProbsAreCapped(t *testing.T) {
	es, _, pm := randomStoreAndMaps(rand.New(rand.NewSource(5)), 300, 3)
	for _, k := range es.Keys() {
		if p := es.Probs(k); cap(p) != es.Classes() {
			t.Fatalf("Probs(%d): len %d cap %d, want cap %d", k, len(p), cap(p), es.Classes())
		}
		_ = append(es.Probs(k), 42)
	}
	for k, want := range pm {
		if got := es.Probs(k); !slices.Equal(got, want) {
			t.Fatalf("Probs(%d) = %v after appends, want %v", k, got, want)
		}
	}
}

func TestNewEdgeStoreValidation(t *testing.T) {
	if _, err := NewEdgeStore([]uint64{1, 2}, []social.Label{0}, []float64{1, 0, 0, 1, 0, 0}, 3); err == nil {
		t.Fatal("label/key length mismatch accepted")
	}
	if _, err := NewEdgeStore([]uint64{1}, []social.Label{0}, []float64{1, 0}, 3); err == nil {
		t.Fatal("short probs accepted")
	}
	if _, err := NewEdgeStore([]uint64{1}, []social.Label{0}, []float64{1}, 0); err == nil {
		t.Fatal("zero classes accepted")
	}
	if _, err := NewEdgeStore([]uint64{2, 1}, []social.Label{0, 0}, []float64{1, 0, 0, 1, 0, 0}, 3); err == nil {
		t.Fatal("descending keys accepted")
	}
	if _, err := NewEdgeStore([]uint64{1, 1}, []social.Label{0, 0}, []float64{1, 0, 0, 1, 0, 0}, 3); err == nil {
		t.Fatal("duplicate keys accepted")
	}
}

// TestNewEdgeStoreFromRunUnsorted pins sortedRun's defensive sort path:
// edge input in arbitrary order must come out identical to the same edges
// fed in ascending order.
func TestNewEdgeStoreFromRunUnsorted(t *testing.T) {
	edges := []graph.Edge{{U: 5, V: 9}, {U: 1, V: 2}, {U: 3, V: 4}}
	preds := []social.Label{2, 0, 1}
	probs := []float64{
		0.1, 0.2, 0.7,
		0.8, 0.1, 0.1,
		0.2, 0.5, 0.3,
	}
	got := sortedRun(edges, preds, probs, 3).store(3)

	perm := []int{1, 2, 0} // ascending key order of the edges above
	for i, j := range perm {
		wantKey := edges[j].Key()
		if got.Keys()[i] != wantKey {
			t.Fatalf("key[%d] = %d, want %d", i, got.Keys()[i], wantKey)
		}
		l, p, _ := got.Lookup(wantKey)
		if l != preds[j] {
			t.Fatalf("label[%d] = %v, want %v", i, l, preds[j])
		}
		if !slices.Equal(p, probs[j*3:(j+1)*3]) {
			t.Fatalf("probs[%d] = %v, want %v", i, p, probs[j*3:(j+1)*3])
		}
	}
}
