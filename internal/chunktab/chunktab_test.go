package chunktab

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// checkShape fails unless t is well formed: no empty leaf or chunk, none
// past 2×Keys; every head its run's first key; keys strictly ascending
// across the whole table; n the number of keys.
func checkShape[V any](t *testing.T, what string, tab Table[V]) {
	t.Helper()
	n, prev := 0, uint64(0)
	for li, lf := range tab.leaves {
		if len(lf.chunks) == 0 || len(lf.chunks) > 2*Keys || lf.head != lf.chunks[0].head {
			t.Fatalf("%s: leaf %d: %d chunks, head %d", what, li, len(lf.chunks), lf.head)
		}
		for ci, c := range lf.chunks {
			if len(c.entries) == 0 || len(c.entries) > 2*Keys || c.head != c.entries[0].Key {
				t.Fatalf("%s: leaf %d chunk %d: %d entries, head %d", what, li, ci, len(c.entries), c.head)
			}
			for _, e := range c.entries {
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

// checkSame fails unless tab reads as the map want through Get, All and
// Len, probing every key in want and every 7th key in [0, span).
func checkSame(t *testing.T, what string, tab Table[int], want map[uint64]int, span uint64) {
	t.Helper()
	checkShape(t, what, tab)
	if tab.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", what, tab.Len(), len(want))
	}
	got := map[uint64]int{}
	var keys []uint64
	for k, v := range tab.All() {
		got[k] = v
		keys = append(keys, k)
	}
	if !maps.Equal(got, want) || !slices.IsSorted(keys) {
		t.Fatalf("%s: All yields %d keys (sorted %v), want %d", what, len(got), slices.IsSorted(keys), len(want))
	}
	for k, wv := range want {
		if v, ok := tab.Get(k); !ok || v != wv {
			t.Fatalf("%s: Get(%d) = %d,%v, want %d", what, k, v, ok, wv)
		}
	}
	for k := uint64(0); k < span; k += 7 {
		wv, wok := want[k]
		if v, ok := tab.Get(k); ok != wok || v != wv {
			t.Fatalf("%s: Get(%d) = %d,%v, want %d,%v", what, k, v, ok, wv, wok)
		}
	}
}

// TestSplicedMatchesMap splices random sorted runs, small and bulk, dense
// and sparse, into a chain of tables, past the size where leaves split,
// and holds each successor to a map as it is made and, once the chain is
// done, every table of it again: no later splice reached an earlier table.
func TestSplicedMatchesMap(t *testing.T) {
	const span = 40_000
	rng := rand.New(rand.NewSource(3))
	var tab Table[int]
	want := map[uint64]int{}
	type past struct {
		tab  Table[int]
		want map[uint64]int
	}
	var chain []past
	maxLeaves := 0
	for step := 0; tab.Len() < 20_000; step++ {
		fresh := map[uint64]int{}
		switch rng.Intn(4) {
		case 0: // a bulk run of consecutive keys
			at := uint64(rng.Intn(span))
			for k := at; k < min(at+uint64(rng.Intn(3000)), span); k++ {
				fresh[k] = step
			}
		case 1: // scattered keys, mostly new
			for range rng.Intn(800) {
				fresh[uint64(rng.Intn(span))] = step
			}
		default: // one or two keys: the epoch shape
			for range 1 + rng.Intn(2) {
				fresh[uint64(rng.Intn(span))] = step
			}
		}
		run := make([]Entry[int], 0, len(fresh))
		for _, k := range slices.Sorted(maps.Keys(fresh)) {
			run = append(run, Entry[int]{k, fresh[k]})
		}
		before := slices.Clone(run)
		next := tab.Spliced(run)
		if !slices.Equal(run, before) {
			t.Fatalf("step %d: Spliced wrote its input", step)
		}
		want = maps.Clone(want)
		maps.Copy(want, fresh)
		checkSame(t, "successor", next, want, span)
		chain = append(chain, past{next, want})
		tab, maxLeaves = next, max(maxLeaves, len(next.leaves))
	}
	for i, p := range chain {
		checkSame(t, fmt.Sprintf("table %d of the chain", i), p.tab, p.want, span)
	}
	if maxLeaves < 2 {
		t.Fatalf("%d keys in one leaf: the schedule never split a leaf", tab.Len())
	}
}

// TestSplicedSharesUntouched: a one-key splice rebuilds one chunk and its
// leaf, and shares every other chunk and leaf with its source by pointer.
func TestSplicedSharesUntouched(t *testing.T) {
	run := make([]Entry[int], 40_000)
	for i := range run {
		run[i] = Entry[int]{uint64(2 * i), i}
	}
	tab := Table[int]{}.Spliced(run)
	if len(tab.leaves) < 3 {
		t.Fatalf("%d leaves: the test needs several", len(tab.leaves))
	}
	key := run[len(run)/2].Key + 1
	next := tab.Spliced([]Entry[int]{{key, -1}})
	li, ci := tab.locate(key)
	if len(next.leaves) != len(tab.leaves) {
		t.Fatalf("one insert changed the leaf count %d → %d", len(tab.leaves), len(next.leaves))
	}
	for i := range tab.leaves {
		old, got := tab.leaves[i].chunks, next.leaves[i].chunks
		if sameSlice := &old[0] == &got[0]; sameSlice != (i != li) {
			t.Fatalf("leaf %d shared %v; only leaf %d should be rebuilt", i, sameSlice, li)
		}
		for j := range old {
			if shared := &old[j].entries[0] == &got[j].entries[0]; shared != (i != li || j != ci) {
				t.Fatalf("leaf %d chunk %d shared %v; only chunk %d/%d should be rebuilt", i, j, shared, li, ci)
			}
		}
	}
	if v, ok := next.Get(key); !ok || v != -1 || next.Len() != tab.Len()+1 {
		t.Fatalf("Get(%d) = %d,%v; Len %d", key, v, ok, next.Len())
	}
	if _, ok := tab.Get(key); ok {
		t.Fatal("the source table gained the key")
	}
}

// TestSpliceAllocatesLittle: a one-key splice makes three objects (the
// entries slab, the chunk slab and the top level), whatever the table's
// size.
func TestSpliceAllocatesLittle(t *testing.T) {
	run := make([]Entry[int], 5_000)
	for i := range run {
		run[i] = Entry[int]{uint64(3 * i), i}
	}
	tab := Table[int]{}.Spliced(run)
	fresh := []Entry[int]{{7_001, 1}}
	if got := testing.AllocsPerRun(100, func() { tab.Spliced(fresh) }); got > 3 {
		t.Fatalf("one-key splice: %v allocations, want ≤ 3", got)
	}
}

func TestPieces(t *testing.T) {
	for m, want := range map[int]int{0: 0, 1: 1, 2 * Keys: 1, 2*Keys + 1: 2, 3 * Keys: 3, 100 * Keys: 100} {
		if got := Pieces(m); got != want {
			t.Errorf("Pieces(%d) = %d, want %d", m, got, want)
		}
	}
}
