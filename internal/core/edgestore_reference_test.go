package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"locec/internal/graph"
	"locec/internal/social"
)

// The per-element without/merged pair over flat arrays — the store's
// update before it was chunked, and before spliced — kept as the oracle the
// splice is tested against. Nothing outside tests calls them.

// without returns a new store with the given keys removed (keys must be
// sorted ascending; absent keys are ignored). The receiver is untouched.
func (s *EdgeStore) without(removed []uint64) *EdgeStore {
	if s == nil || len(removed) == 0 {
		return s
	}
	c := s.classes
	skeys, slabels, sprobs := s.Keys(), s.Labels(), s.ProbsFlat()
	var keys []uint64
	var labels []social.Label
	var probs []float64
	r := 0
	for i, k := range skeys {
		for r < len(removed) && removed[r] < k {
			r++
		}
		if r < len(removed) && removed[r] == k {
			continue
		}
		keys = append(keys, k)
		labels = append(labels, slabels[i])
		probs = append(probs, sprobs[i*c:(i+1)*c]...)
	}
	return mustStore(keys, labels, probs, c)
}

// merged returns a new store holding the union of s and fresh, with
// fresh's entries replacing s's on key collisions. Both inputs are
// untouched; a nil receiver yields fresh itself.
func (s *EdgeStore) merged(fresh *EdgeStore) *EdgeStore {
	if s.Len() == 0 {
		return fresh
	}
	if fresh.Len() == 0 {
		return s
	}
	if s.classes != fresh.classes {
		panic(fmt.Sprintf("core: edge store merge: %d classes vs %d", s.classes, fresh.classes))
	}
	c := s.classes
	skeys, slabels, sprobs := s.Keys(), s.Labels(), s.ProbsFlat()
	fkeys, flabels, fprobs := fresh.Keys(), fresh.Labels(), fresh.ProbsFlat()
	var keys []uint64
	var labels []social.Label
	var probs []float64
	i, j := 0, 0
	for i < len(skeys) || j < len(fkeys) {
		if j < len(fkeys) && (i >= len(skeys) || fkeys[j] <= skeys[i]) {
			if i < len(skeys) && fkeys[j] == skeys[i] {
				i++ // replaced
			}
			keys = append(keys, fkeys[j])
			labels = append(labels, flabels[j])
			probs = append(probs, fprobs[j*c:(j+1)*c]...)
			j++
		} else {
			keys = append(keys, skeys[i])
			labels = append(labels, slabels[i])
			probs = append(probs, sprobs[i*c:(i+1)*c]...)
			i++
		}
	}
	return mustStore(keys, labels, probs, c)
}

func mustStore(keys []uint64, labels []social.Label, probs []float64, classes int) *EdgeStore {
	es, err := NewEdgeStore(keys, labels, probs, classes)
	if err != nil {
		panic(err)
	}
	return es
}

// runOf returns a store's entries as one flat run — the shape spliced
// takes its fresh predictions in.
func runOf(s *EdgeStore) edgeRun {
	return edgeRun{s.Keys(), s.Labels(), s.ProbsFlat()}
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

// assertChunkInvariants checks the table shape every store must keep:
// heads strictly ascending and equal to each chunk's first key, no empty
// chunk, none past 2×chunkKeys, keys ascending across chunk boundaries,
// parallel column widths and a Len that counts the chunks.
func assertChunkInvariants(t *testing.T, what string, s *EdgeStore) {
	t.Helper()
	if s == nil {
		return
	}
	if len(s.heads) != len(s.chunks) {
		t.Fatalf("%s: %d heads for %d chunks", what, len(s.heads), len(s.chunks))
	}
	n := 0
	var last uint64
	for i, r := range s.chunks {
		switch {
		case len(r.keys) == 0:
			t.Fatalf("%s: chunk %d is empty", what, i)
		case len(r.keys) > 2*chunkKeys:
			t.Fatalf("%s: chunk %d holds %d keys, more than %d", what, i, len(r.keys), 2*chunkKeys)
		case len(r.labels) != len(r.keys) || len(r.probs) != len(r.keys)*s.classes:
			t.Fatalf("%s: chunk %d columns are ragged", what, i)
		case s.heads[i] != r.keys[0]:
			t.Fatalf("%s: head %d is %d, chunk starts at %d", what, i, s.heads[i], r.keys[0])
		case i > 0 && r.keys[0] <= last:
			t.Fatalf("%s: chunk %d starts at %d, not above the previous key %d", what, i, r.keys[0], last)
		}
		for j := 1; j < len(r.keys); j++ {
			if r.keys[j-1] >= r.keys[j] {
				t.Fatalf("%s: chunk %d keys not strictly increasing at %d", what, i, j)
			}
		}
		last = r.keys[len(r.keys)-1]
		n += len(r.keys)
	}
	if n != s.n {
		t.Fatalf("%s: Len %d, chunks hold %d", what, s.n, n)
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
	return mustStore(keys, labels, probs, classes)
}

// spliceChecked splices s and checks the result against the flat
// reference, its chunk invariants, and the receiver against its state
// before the call.
func spliceChecked(t *testing.T, what string, s *EdgeStore, removed []uint64, fresh *EdgeStore) *EdgeStore {
	t.Helper()
	var before *EdgeStore
	var heads []uint64
	if s.Len() > 0 {
		before, heads = mustStore(s.Keys(), s.Labels(), s.ProbsFlat(), s.classes), slices.Clone(s.heads)
	}
	got := s.spliced(removed, runOf(fresh))
	assertStoresEqual(t, what, got, s.without(removed).merged(fresh))
	assertChunkInvariants(t, what, got)
	if before != nil {
		assertStoresEqual(t, what+": receiver", s, before) // copy-on-write
		if !slices.Equal(s.heads, heads) {
			t.Fatalf("%s: receiver's chunk table changed", what)
		}
	}
	return got
}

// TestEdgeStoreSplicedMatchesReference pins spliced(removed, fresh) against
// merged(without(removed), fresh) — the per-element pair it replaced — with
// == on all three arrays, over the shapes the engine produces and the ones
// it should never choke on, on small stores and on multi-chunk ones.
func TestEdgeStoreSplicedMatchesReference(t *testing.T) {
	const classes = 3
	rng := rand.New(rand.NewSource(23))
	base, _, _ := randomStoreAndMaps(rng, 200, classes)
	keys := base.Keys()
	first, last := keys[0], keys[len(keys)-1]
	mid := keys[100]

	check := func(what string, s *EdgeStore, removed, freshKeys []uint64) {
		t.Helper()
		spliceChecked(t, what, s, removed, randomFresh(rng, freshKeys, classes))
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
	if base.spliced(nil, edgeRun{}) != base || base.spliced([]uint64{}, edgeRun{}) != base {
		t.Fatal("no-op splice copied the store")
	}

	// Multi-chunk stores: keys 0, 8, 16, … so every chunk has room for
	// inserts between its keys.
	big := randomFresh(rng, stridedKeys(6000, 8), classes)
	bk := big.Keys()
	head := func(ci int) uint64 { return bk[ci*chunkKeys] }
	tail := func(ci int) uint64 { return bk[ci*chunkKeys+chunkKeys-1] }
	check("big: heads removed", big, []uint64{head(0), head(7), head(40)}, nil)
	check("big: tails removed", big, []uint64{tail(0), tail(7), tail(92)}, nil)
	check("big: heads and tails replaced", big, nil, []uint64{head(3), tail(3), head(4), tail(50)})
	check("big: insert between a tail and the next head", big, nil, []uint64{tail(9) + 1, head(10) - 1})
	check("big: insert before the first head and after the last key", big, nil, []uint64{bk[len(bk)-1] + 1, bk[len(bk)-1] + 9})
	check("big: a chunk emptied", big, bk[5*chunkKeys:6*chunkKeys], nil)
	check("big: two chunks emptied, fresh around them", big, bk[5*chunkKeys:7*chunkKeys], []uint64{head(5) - 1, head(7)})
	check("big: the last chunk emptied", big, bk[len(bk)-len(bk)%chunkKeys:], nil)
	// 65 inserts into one 64-key chunk: 129 entries, one past the split size.
	var grow []uint64
	for i := 0; len(grow) < chunkKeys+1; i++ {
		grow = append(grow, head(11)+uint64(i/7*8+i%7+1))
	}
	slices.Sort(grow)
	check("big: a chunk pushed past the split size", big, nil, grow)
	// Every gap of one chunk filled: 64 + 7·64 = 512 entries, split eight ways.
	var fill []uint64
	for k := head(20); k <= tail(20)+7; k++ {
		fill = append(fill, k)
	}
	check("big: a chunk split many ways", big, []uint64{head(20) + 8}, fill)
	check("big: everything removed", big, bk, nil)

	for trial := 0; trial < 200; trial++ {
		s, _, _ := randomStoreAndMaps(rng, 1+rng.Intn(60+rng.Intn(2)*600), classes)
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

// withStored returns fresh with the entries of the listed keys that s
// holds replaced by s's own, bit for bit.
func withStored(s, fresh *EdgeStore, keys []uint64) *EdgeStore {
	if fresh.Len() == 0 {
		return fresh
	}
	run, c := runOf(fresh), fresh.Classes()
	for _, k := range keys {
		i, ok := slices.BinarySearch(run.keys, k)
		if l, p, found := s.Lookup(k); ok && found {
			run.labels[i] = l
			copy(run.probs[i*c:(i+1)*c], p)
		}
	}
	return mustStore(run.keys, run.labels, run.probs, c)
}

// TestSpliceCarriesUnchangedChunks: a chunk whose dirty keys re-predict
// its own entries bit for bit, and remove none of its keys, is carried
// over — not rebuilt — and a splice that changes no chunk returns the
// receiver without allocating; a change that == cannot see (-0 against
// +0, another NaN payload) is still a change.
func TestSpliceCarriesUnchangedChunks(t *testing.T) {
	const classes = 3
	rng := rand.New(rand.NewSource(31))
	s := randomFresh(rng, stridedKeys(6000, 8), classes)
	var keys, absent []uint64
	for ci := 0; ci < 10; ci++ { // three stored keys in each of 10 chunks, and an absent removal
		k := s.heads[ci*9]
		keys, absent = append(keys, k, k+8, k+16), append(absent, k+3)
	}
	stored := func(s *EdgeStore, keys []uint64) edgeRun {
		return runOf(withStored(s, randomFresh(rng, keys, classes), keys))
	}
	fresh := stored(s, keys)

	t.Run("nothing changes", func(t *testing.T) {
		if got := s.spliced(absent, fresh); got != s {
			t.Fatal("a splice that changes nothing did not return its receiver")
		}
		if allocs := testing.AllocsPerRun(20, func() { spliceSink = s.spliced(absent, fresh) }); allocs != 0 {
			t.Fatalf("a splice that changes nothing allocated %.0f times", allocs)
		}
	})
	t.Run("one key changes", func(t *testing.T) {
		for what, change := range map[string]func(edgeRun){
			"label":       func(r edgeRun) { r.labels[13] = (r.labels[13] + 1) % classes },
			"probability": func(r edgeRun) { r.probs[13*classes+1] += 0.25 },
		} {
			changed := stored(s, keys)
			change(changed)
			got := spliceChecked(t, what, s, absent, mustStore(changed.keys, changed.labels, changed.probs, classes))
			var rebuilt []int
			for i := range got.chunks {
				if i < s.NumChunks() && got.chunks[i] != s.chunks[i] {
					rebuilt = append(rebuilt, i)
				}
			}
			if want := s.chunkOf(keys[13]); got.NumChunks() != s.NumChunks() || len(rebuilt) != 1 || rebuilt[0] != want {
				t.Fatalf("%s: %d chunks, rebuilt %v; want %d and [%d]", what, got.NumChunks(), rebuilt, s.NumChunks(), want)
			}
		}
	})
	t.Run("changes == cannot see", func(t *testing.T) {
		k := keys[0]
		base := runOf(s)
		base.probs[0], base.probs[1] = 0, math.Float64frombits(0x7ff8000000000001)
		b := mustStore(base.keys, base.labels, base.probs, classes)
		for _, tc := range []struct {
			name string
			at   int
			bits uint64
		}{{"-0 against +0", 0, math.Float64bits(math.Copysign(0, -1))}, {"another NaN payload", 1, 0x7ff8000000000002}} {
			f := stored(b, []uint64{k})
			f.probs[tc.at] = math.Float64frombits(tc.bits)
			got := b.spliced(nil, f)
			if got == b {
				t.Fatalf("%s: the splice returned its receiver", tc.name)
			}
			if _, p, _ := got.Lookup(k); math.Float64bits(p[tc.at]) != tc.bits {
				t.Fatalf("%s: stored bits %#x, want %#x", tc.name, math.Float64bits(p[tc.at]), tc.bits)
			}
		}
	})
}

// stridedKeys returns n keys 0, stride, 2·stride, ….
func stridedKeys(n int, stride uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * stride
	}
	return keys
}

// TestEdgeStoreSpliceChained runs 500 splices in a chain, each on the
// previous one's result, against the same chain through the flat
// reference: the store fragments, splits and drops chunks over time the
// way a long-lived server's does, and after every splice it must still
// equal the reference, keep its chunk invariants and leave its receiver
// unchanged.
func TestEdgeStoreSpliceChained(t *testing.T) {
	const classes = 3
	rng := rand.New(rand.NewSource(29))
	s := randomFresh(rng, stridedKeys(3000, 16), classes)
	const span = 3000 * 16
	for epoch := 0; epoch < 500; epoch++ {
		var removed, freshKeys []uint64
		keys := s.Keys()
		switch rng.Intn(5) {
		case 0: // a run of removals: empties chunks
			if len(keys) > 0 {
				at := rng.Intn(len(keys))
				removed = slices.Clone(keys[at:min(len(keys), at+rng.Intn(3*chunkKeys))])
			}
		case 1: // a dense run of inserts: splits chunks
			at := rng.Uint64() % span
			for k := at; k < at+uint64(rng.Intn(4*chunkKeys)); k++ {
				freshKeys = append(freshKeys, k)
			}
		default: // an epoch's scatter: a few removals, re-predictions, inserts
			for i := rng.Intn(8); i > 0 && len(keys) > 0; i-- {
				removed = append(removed, keys[rng.Intn(len(keys))])
			}
			for i := rng.Intn(80); i > 0; i-- {
				if rng.Intn(2) == 0 && len(keys) > 0 {
					freshKeys = append(freshKeys, keys[rng.Intn(len(keys))])
				} else {
					freshKeys = append(freshKeys, rng.Uint64()%span)
				}
			}
		}
		slices.Sort(removed)
		slices.Sort(freshKeys)
		fresh := randomFresh(rng, slices.Compact(freshKeys), classes)
		s = spliceChecked(t, fmt.Sprintf("epoch %d", epoch), s, slices.Compact(removed), fresh)
	}
}

// FuzzEdgeStoreSplice drives chained splices from raw bytes. The first
// two bytes size a strided base store; then every three bytes are one
// dirty key — a kind (remove, re-predict, both, or end the epoch; bit 2
// set on a re-predict makes it copy the stored entry verbatim, so chunks
// are carried over) and a 16-bit key — so a crasher spells out its own
// epochs.
func FuzzEdgeStoreSplice(f *testing.F) {
	op := func(kind byte, key uint16) []byte { return []byte{kind, byte(key >> 8), byte(key)} }
	seed := func(n uint16, ops ...[]byte) []byte {
		b := []byte{byte(n >> 8), byte(n)}
		for _, o := range ops {
			b = append(b, o...)
		}
		return b
	}
	f.Add(seed(0, op(1, 5)))
	f.Add(seed(200, op(0, 0), op(1, 1), op(2, 4*63), op(3, 0), op(0, 4*64), op(1, 799)))
	var fill [][]byte
	for k := uint16(4 * 64); k < 4*128; k++ {
		fill = append(fill, op(1, k)) // one chunk's gaps filled: a split
	}
	f.Add(seed(500, fill...))
	var empty [][]byte
	for k := uint16(0); k < 4*chunkKeys; k += 4 {
		empty = append(empty, op(0, k)) // the first chunk removed
	}
	f.Add(seed(300, append(empty, op(3, 0), op(1, 2))...))
	var copies [][]byte
	for k := uint16(0); k < 4*400; k += 4 * 37 {
		copies = append(copies, op(5, k), op(5, k+4), op(0, k+1)) // stored entries copied, absent removals, six chunks
	}
	f.Add(seed(400, append(copies, op(1, 4*200), op(3, 0), op(5, 8), op(5, 4*300))...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		const classes = 2
		rng := rand.New(rand.NewSource(int64(len(data))))
		s := randomFresh(rng, stridedKeys((int(data[0])<<8|int(data[1]))%4096, 4), classes)
		var removed, freshKeys, verbatim []uint64
		epoch := func() {
			slices.Sort(removed)
			slices.Sort(freshKeys)
			fresh := withStored(s, randomFresh(rng, slices.Compact(freshKeys), classes), verbatim)
			s = spliceChecked(t, "fuzz", s, slices.Compact(removed), fresh)
			removed, freshKeys, verbatim = removed[:0], freshKeys[:0], verbatim[:0]
		}
		for b := data[2:]; len(b) >= 3; b = b[3:] {
			k := uint64(b[1])<<8 | uint64(b[2])
			if kind := b[0] % 4; b[0]&4 != 0 && (kind == 1 || kind == 2) {
				verbatim = append(verbatim, k)
			}
			switch b[0] % 4 {
			case 0:
				removed = append(removed, k)
			case 1:
				freshKeys = append(freshKeys, k)
			case 2:
				removed = append(removed, k)
				freshKeys = append(freshKeys, k)
			case 3:
				epoch()
			}
		}
		epoch()
	})
}

// spliceBench100k is one epoch's store update at the write benchmark's
// scale: ~100 000 predicted edges of a random graph on 10 000 nodes, and
// the dirty edges of a one-edge mutation's two endpoints — each node's own
// row (its higher-numbered friends, contiguous in key order) plus its
// edges to lower-numbered friends, which sit in those friends' rows and
// scatter across the store. One of them is removed.
func spliceBench100k() (s *EdgeStore, removed []uint64, fresh edgeRun) {
	const nodes, edges, classes = 10_000, 100_000, 3
	rng := rand.New(rand.NewSource(1))
	set := make(map[uint64]bool, edges)
	adj := make([][]graph.NodeID, nodes)
	for len(set) < edges {
		u, v := graph.NodeID(rng.Intn(nodes)), graph.NodeID(rng.Intn(nodes))
		if k := (graph.Edge{U: u, V: v}).Key(); u != v && !set[k] {
			set[k] = true
			adj[u], adj[v] = append(adj[u], v), append(adj[v], u)
		}
	}
	keys := make([]uint64, 0, edges)
	for k := range set {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	s = randomFresh(rng, keys, classes)
	var dirty []uint64
	for _, u := range []graph.NodeID{1_234, 7_890} {
		for _, v := range adj[u] {
			dirty = append(dirty, (graph.Edge{U: u, V: v}).Key())
		}
	}
	slices.Sort(dirty)
	dirty = slices.Compact(dirty)
	cut := dirty[len(dirty)/2]
	dirty = slices.Delete(dirty, len(dirty)/2, len(dirty)/2+1)
	return s, []uint64{cut}, runOf(randomFresh(rng, dirty, classes))
}

// TestSpliceOneKeyAllocatesLittle: replacing one key of spliceBench100k's
// store copies the chunk table — a head and a chunk pointer per chunk, at
// most 24 B each (≈ 80 B per chunk while the table held headers) — and
// rebuilds the one chunk holding the key; nothing else grows with the store.
func TestSpliceOneKeyAllocatesLittle(t *testing.T) {
	s, _, _ := spliceBench100k()
	keys, _, _ := s.Chunk(s.NumChunks() / 2)
	fresh := runOf(randomFresh(rand.New(rand.NewSource(2)), keys[:1], s.classes))
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		spliceSink = s.spliced(nil, fresh)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	chunk := uint64(len(keys) * (8 + 1 + 8*s.classes))
	if limit := 24*uint64(s.NumChunks()) + chunk; per > limit {
		t.Fatalf("one-key splice allocated %d B over %d chunks, want ≤ %d (24 B per chunk + the %d B chunk)",
			per, s.NumChunks(), limit, chunk)
	}
	t.Logf("one-key splice allocated %d B = %.1f B per chunk (%d chunks)", per, float64(per)/float64(s.NumChunks()), s.NumChunks())
}

// TestExportAllocatesLittle: Export shares the store rather than
// flattening it, so exporting a 100 000-edge result allocates under 1 % of
// the store's flat bytes.
func TestExportAllocatesLittle(t *testing.T) {
	s, _, _ := spliceBench100k()
	res := &Result{ClassifierName: "LoCEC-XGB", Edges: s}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ex, err := res.Export()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Edges != s {
		t.Fatal("the export does not carry the result's store")
	}
	flat := uint64(s.Len() * (8 + 1 + 8*s.classes))
	if got := after.TotalAlloc - before.TotalAlloc; got >= flat/100 {
		t.Fatalf("Export allocated %d B, want < 1 %% of the store's %d flat bytes", got, flat)
	}
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
// flat per-element pair, for the before/after number.
func BenchmarkEdgeStoreSpliceReference100k(b *testing.B) {
	s, removed, fresh := spliceBench100k()
	fs := mustStore(fresh.keys, fresh.labels, fresh.probs, s.classes)
	b.ReportAllocs()
	for b.Loop() {
		spliceSink = s.without(removed).merged(fs)
	}
}
