package chunktab

import (
	"cmp"
	"fmt"
	"iter"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// payload is one kind of chunk the tests run a table over, with how a
// splice lands drops and puts in it and how a chunk reads back.
type payload[C any] struct {
	name  string
	drops bool // whether the payload's splices take drops
	// splice returns t with drop removed and puts landed, and whether
	// that changed t.
	splice  func(t Table[C], drop []uint64, puts []Entry[int]) (Table[C], bool)
	entries func(c C) []Entry[int]
	find    func(c C, key uint64) (int, bool) // key's value in c, if c holds it
	first   func(c C) *uint64                 // the chunk's first key, by address: its identity
	// allocs is how many objects a one-key splice makes.
	allocs float64
}

// rows is the edit delta's payload: entries inline.
var rows = payload[[]Entry[int]]{
	name: "rows",
	splice: func(t Table[[]Entry[int]], _ []uint64, puts []Entry[int]) (Table[[]Entry[int]], bool) {
		return Rows[int]{t}.Spliced(puts).t, len(puts) > 0
	},
	entries: func(c []Entry[int]) []Entry[int] { return c },
	find: func(c []Entry[int], key uint64) (int, bool) {
		i, ok := slices.BinarySearchFunc(c, key, func(e Entry[int], k uint64) int { return cmp.Compare(e.Key, k) })
		if !ok {
			return 0, false
		}
		return c[i].Val, true
	},
	first:  func(c []Entry[int]) *uint64 { return &c[0].Key },
	allocs: 3, // the entries slab, the chunk slab, the top level
}

// cols is a payload in the edge store's shape: a columnar run behind a
// pointer, whose splices take drops and carry over a chunk whose puts
// re-put its own values and whose drops it does not hold.
type cols struct {
	keys []uint64
	vals []int
}

var columns = payload[*cols]{
	name:  "columns",
	drops: true,
	splice: func(t Table[*cols], drop []uint64, puts []Entry[int]) (Table[*cols], bool) {
		var slab cols
		var runs []cols
		return t.Spliced(drop, len(puts), Merger[*cols]{
			Key: func(i int) uint64 { return puts[i].Key },
			Check: func(c *cols, drop []uint64, lo, hi int) (int, bool) {
				same := true
				for _, p := range puts[lo:hi] {
					i, ok := slices.BinarySearch(c.keys, p.Key)
					same = same && ok && c.vals[i] == p.Val
				}
				for _, k := range drop {
					_, ok := slices.BinarySearch(c.keys, k)
					same = same && !ok
				}
				return len(c.keys), same
			},
			Reserve: func(entries, chunks int) {
				slab, runs = cols{make([]uint64, 0, entries), make([]int, 0, entries)}, make([]cols, 0, chunks)
			},
			Merge: func(c *cols, drop []uint64, lo, hi int) int {
				at, fresh := len(slab.keys), puts[lo:hi]
				var old cols
				if c != nil {
					old = *c
				}
				push := func(k uint64, v int) { slab.keys, slab.vals = append(slab.keys, k), append(slab.vals, v) }
				for i := 0; i < len(old.keys) || len(fresh) > 0; {
					if len(fresh) > 0 && (i == len(old.keys) || fresh[0].Key <= old.keys[i]) {
						if i < len(old.keys) && old.keys[i] == fresh[0].Key {
							i++
						}
						push(fresh[0].Key, fresh[0].Val)
						fresh = fresh[1:]
						continue
					}
					if _, gone := slices.BinarySearch(drop, old.keys[i]); !gone {
						push(old.keys[i], old.vals[i])
					}
					i++
				}
				return len(slab.keys) - at
			},
			Cut: func(lo, hi int) (*cols, uint64) {
				runs = append(runs, cols{slab.keys[lo:hi:hi], slab.vals[lo:hi:hi]})
				return &runs[len(runs)-1], slab.keys[lo]
			},
		})
	},
	entries: func(c *cols) []Entry[int] {
		es := make([]Entry[int], len(c.keys))
		for i, k := range c.keys {
			es[i] = Entry[int]{k, c.vals[i]}
		}
		return es
	},
	find: func(c *cols, key uint64) (int, bool) {
		i, ok := slices.BinarySearch(c.keys, key)
		if !ok {
			return 0, false
		}
		return c.vals[i], true
	},
	first:  func(c *cols) *uint64 { return &c.keys[0] },
	allocs: 5, // two column slabs, the chunk headers, the chunk slab, the top level
}

// all iterates tab's keys and values in ascending key order.
func (p payload[C]) all(tab Table[C]) iter.Seq2[uint64, int] {
	return func(yield func(uint64, int) bool) {
		for c := range tab.Chunks() {
			for _, e := range p.entries(c) {
				if !yield(e.Key, e.Val) {
					return
				}
			}
		}
	}
}

// get returns key's value through Chunk, and whether tab holds it.
func (p payload[C]) get(tab Table[C], key uint64) (int, bool) {
	c, ok := tab.Chunk(key)
	if !ok {
		return 0, false
	}
	return p.find(c, key)
}

// build returns a table holding run, spliced into an empty one.
func (p payload[C]) build(run []Entry[int]) Table[C] {
	tab, _ := p.splice(Table[C]{}, nil, run)
	return tab
}

// checkShape fails unless tab is well formed: no empty leaf or chunk, none
// past 2×Keys; every head its run's first key; keys strictly ascending
// across the whole table; n the number of keys.
func checkShape[C any](t *testing.T, p payload[C], what string, tab Table[C]) {
	t.Helper()
	n, prev := 0, uint64(0)
	for li, lf := range tab.leaves {
		if len(lf.chunks) == 0 || len(lf.chunks) > 2*Keys || lf.head != lf.chunks[0].head {
			t.Fatalf("%s: leaf %d: %d chunks, head %d", what, li, len(lf.chunks), lf.head)
		}
		for ci, c := range lf.chunks {
			es := p.entries(c.run)
			if len(es) == 0 || len(es) > 2*Keys || c.head != es[0].Key {
				t.Fatalf("%s: leaf %d chunk %d: %d entries, head %d", what, li, ci, len(es), c.head)
			}
			for _, e := range es {
				if n > 0 && e.Key <= prev {
					t.Fatalf("%s: key %d after %d", what, e.Key, prev)
				}
				prev, n = e.Key, n+1
			}
		}
	}
	if n != tab.n {
		t.Fatalf("%s: %d keys, Len says %d", what, n, tab.n)
	}
}

// checkSame fails unless tab reads as the map want through Chunk, Chunks
// and Len, probing every key in want and every 7th key in [0, span).
func checkSame[C any](t *testing.T, p payload[C], what string, tab Table[C], want map[uint64]int, span uint64) {
	t.Helper()
	checkShape(t, p, what, tab)
	if tab.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", what, tab.Len(), len(want))
	}
	got := map[uint64]int{}
	var keys []uint64
	for k, v := range p.all(tab) {
		got[k] = v
		keys = append(keys, k)
	}
	if !maps.Equal(got, want) || !slices.IsSorted(keys) {
		t.Fatalf("%s: Chunks yield %d keys (sorted %v), want %d", what, len(got), slices.IsSorted(keys), len(want))
	}
	for k, wv := range want {
		if v, ok := p.get(tab, k); !ok || v != wv {
			t.Fatalf("%s: get(%d) = %d,%v, want %d", what, k, v, ok, wv)
		}
	}
	for k := uint64(0); k < span; k += 7 {
		wv, wok := want[k]
		if v, ok := p.get(tab, k); ok != wok || v != wv {
			t.Fatalf("%s: get(%d) = %d,%v, want %d,%v", what, k, v, ok, wv, wok)
		}
	}
}

// TestSplicedMatchesMap splices random sorted runs, small and bulk, dense
// and sparse, into a chain of tables, past the size where leaves split,
// and holds each successor to a map as it is made and, once the chain is
// done, every table of it again: no later splice reached an earlier table.
// Where the payload takes drops, runs of removals empty chunks and leaves.
func TestSplicedMatchesMap(t *testing.T) {
	t.Run(rows.name, func(t *testing.T) { testSplicedMatchesMap(t, rows) })
	t.Run(columns.name, func(t *testing.T) { testSplicedMatchesMap(t, columns) })
}

func testSplicedMatchesMap[C any](t *testing.T, p payload[C]) {
	const span = 40_000
	rng := rand.New(rand.NewSource(3))
	var tab Table[C]
	want := map[uint64]int{}
	type past struct {
		tab  Table[C]
		want map[uint64]int
	}
	var chain []past
	maxLeaves, dropped, emptied := 0, 0, 0
	for step := 0; tab.Len() < 20_000; step++ {
		fresh, gone := map[uint64]int{}, map[uint64]bool{}
		switch rng.Intn(5) {
		case 0: // a bulk run of consecutive keys
			at := uint64(rng.Intn(span))
			for k := at; k < min(at+uint64(rng.Intn(3000)), span); k++ {
				fresh[k] = step
			}
		case 1: // scattered keys, mostly new
			for range rng.Intn(800) {
				fresh[uint64(rng.Intn(span))] = step
			}
		case 2: // a run of removals, held and absent
			if p.drops {
				at := uint64(rng.Intn(span))
				for k, end := at, min(at+uint64(rng.Intn(800)), span); k < end; k++ {
					gone[k] = true
				}
			}
		default: // one or two keys: the epoch shape
			for range 1 + rng.Intn(2) {
				fresh[uint64(rng.Intn(span))] = step
			}
			if p.drops {
				gone[uint64(rng.Intn(span))] = true
			}
		}
		for k := range fresh {
			delete(gone, k) // a key is dropped or put, never both
		}
		drop := slices.Sorted(maps.Keys(gone))
		for c := range tab.Chunks() {
			if len(gone) > 0 && !slices.ContainsFunc(p.entries(c), func(e Entry[int]) bool { return !gone[e.Key] }) {
				emptied++
			}
		}
		run := make([]Entry[int], 0, len(fresh))
		for _, k := range slices.Sorted(maps.Keys(fresh)) {
			run = append(run, Entry[int]{k, fresh[k]})
		}
		before := slices.Clone(run)
		next, _ := p.splice(tab, drop, run)
		if !slices.Equal(run, before) {
			t.Fatalf("step %d: Spliced wrote its input", step)
		}
		want = maps.Clone(want)
		for _, k := range drop {
			if _, ok := want[k]; ok {
				delete(want, k)
				dropped++
			}
		}
		maps.Copy(want, fresh)
		checkSame(t, p, "successor", next, want, span)
		chain = append(chain, past{next, want})
		tab, maxLeaves = next, max(maxLeaves, len(next.leaves))
	}
	for i, c := range chain {
		checkSame(t, p, fmt.Sprintf("table %d of the chain", i), c.tab, c.want, span)
	}
	if maxLeaves < 2 {
		t.Fatalf("%d keys in one leaf: the schedule never split a leaf", tab.Len())
	}
	t.Logf("%d steps, %d keys dropped, %d chunks emptied", len(chain), dropped, emptied)
	if p.drops && (dropped < 500 || emptied < 10) {
		t.Fatalf("%d keys dropped, %d chunks emptied: the schedule barely removed any", dropped, emptied)
	}
}

// TestSplicedSharesUntouched: a splice rebuilds only the chunks it
// changes and their leaves, and shares every other chunk and leaf with its
// source by pointer. Where the payload takes drops and carries chunks
// over, a removal rebuilds its chunk, and a chunk whose put re-puts its own
// value is shared, inside a rebuilt leaf or not.
func TestSplicedSharesUntouched(t *testing.T) {
	t.Run(rows.name, func(t *testing.T) { testSplicedSharesUntouched(t, rows) })
	t.Run(columns.name, func(t *testing.T) { testSplicedSharesUntouched(t, columns) })
}

func testSplicedSharesUntouched[C any](t *testing.T, p payload[C]) {
	run := make([]Entry[int], 40_000)
	for i := range run {
		run[i] = Entry[int]{uint64(2 * i), i}
	}
	tab := p.build(run)
	if len(tab.leaves) < 4 {
		t.Fatalf("%d leaves: the test needs several", len(tab.leaves))
	}
	at := func(li, ci, i int) Entry[int] { return p.entries(tab.leaves[li].chunks[ci].run)[i] }
	key := at(1, 5, 3).Key + 1
	puts := []Entry[int]{{key, -1}}
	rebuilt := map[int]int{1: 5} // leaf → its one rebuilt chunk
	var drop []uint64
	wantLen := tab.Len() + 1
	if p.drops {
		puts = append(puts, at(1, 9, 2), at(2, 0, 0)) // their own values: carried over
		drop = []uint64{at(3, 4, 1).Key, at(3, 6, 0).Key + 1}
		rebuilt[3], wantLen = 4, wantLen-1
	}
	next, changed := p.splice(tab, drop, puts)
	if !changed || len(next.leaves) != len(tab.leaves) {
		t.Fatalf("changed %v; the leaf count went %d → %d", changed, len(tab.leaves), len(next.leaves))
	}
	for i := range tab.leaves {
		old, got := tab.leaves[i].chunks, next.leaves[i].chunks
		ci, leafRebuilt := rebuilt[i]
		if sameSlice := &old[0] == &got[0]; sameSlice == leafRebuilt {
			t.Fatalf("leaf %d shared %v; only leaves %v should be rebuilt", i, sameSlice, rebuilt)
		}
		for j := range old {
			if shared := p.first(old[j].run) == p.first(got[j].run); shared == (leafRebuilt && j == ci) {
				t.Fatalf("leaf %d chunk %d shared %v; only chunks %v should be rebuilt", i, j, shared, rebuilt)
			}
		}
	}
	if v, ok := p.get(next, key); !ok || v != -1 || next.Len() != wantLen {
		t.Fatalf("get(%d) = %d,%v; Len %d", key, v, ok, next.Len())
	}
	if _, ok := p.get(tab, key); ok {
		t.Fatal("the source table gained the key")
	}
}

// TestSpliceAllocatesLittle: a one-key splice makes the payload's few
// objects (its slabs, the chunk slab and the top level), whatever the
// table's size; where the payload carries chunks over, a splice that
// changes nothing returns its source and makes none.
func TestSpliceAllocatesLittle(t *testing.T) {
	t.Run(rows.name, func(t *testing.T) { testSpliceAllocatesLittle(t, rows) })
	t.Run(columns.name, func(t *testing.T) { testSpliceAllocatesLittle(t, columns) })
}

func testSpliceAllocatesLittle[C any](t *testing.T, p payload[C]) {
	run := make([]Entry[int], 5_000)
	for i := range run {
		run[i] = Entry[int]{uint64(3 * i), i}
	}
	tab := p.build(run)
	fresh := []Entry[int]{{7_001, 1}}
	if got := testing.AllocsPerRun(100, func() { p.splice(tab, nil, fresh) }); got > p.allocs {
		t.Fatalf("one-key splice: %v allocations, want ≤ %v", got, p.allocs)
	}
	if !p.drops {
		return
	}
	own, absent := run[100:101], []uint64{7_001}
	if next, changed := p.splice(tab, absent, own); changed || &next.leaves[0] != &tab.leaves[0] {
		t.Fatal("a splice that changes nothing did not return its source")
	}
	if got := testing.AllocsPerRun(100, func() { p.splice(tab, absent, own) }); got != 0 {
		t.Fatalf("a splice that changes nothing: %v allocations, want 0", got)
	}
}

func TestPieces(t *testing.T) {
	for m, want := range map[int]int{0: 0, 1: 1, 2 * Keys: 1, 2*Keys + 1: 2, 3 * Keys: 3, 100 * Keys: 100} {
		if got := pieces(m); got != want {
			t.Errorf("pieces(%d) = %d, want %d", m, got, want)
		}
	}
}
