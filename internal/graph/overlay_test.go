package graph

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// overlayRandomGraph builds a deterministic random base graph with m edges.
// NumEdges sorts the builder, so it is asked once per round of draws, not
// once per draw; a round of m-have draws cannot overshoot m.
func overlayRandomGraph(tb testing.TB, n, m int, seed int64) *Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for have := 0; have < m; have = b.NumEdges() {
		for ; have < m; have++ {
			if u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)); u != v {
				_ = b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

func TestOverlaySemantics(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 3}})
	o := NewOverlay(g)

	if err := o.AddEdge(1, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := o.AddEdge(0, 9); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if err := o.AddEdge(0, 1); err == nil {
		t.Fatal("duplicate of base edge accepted")
	}
	if err := o.RemoveEdge(0, 3); err == nil {
		t.Fatal("removing a non-edge accepted")
	}

	if err := o.AddEdge(3, 4); err != nil {
		t.Fatal(err)
	}
	if err := o.AddEdge(4, 3); err == nil {
		t.Fatal("duplicate of overlay-added edge accepted")
	}
	if !o.HasEdge(4, 3) {
		t.Fatal("added edge not visible")
	}
	if err := o.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if o.HasEdge(0, 1) {
		t.Fatal("removed edge still visible")
	}
	if err := o.RemoveEdge(0, 1); err == nil {
		t.Fatal("double remove accepted")
	}
	if got, want := o.NumEdges(), 3; got != want {
		t.Fatalf("NumEdges = %d, want %d", got, want)
	}

	// Cancellation: re-adding a removed base edge and removing an added
	// edge both restore the base state.
	if err := o.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := o.RemoveEdge(3, 4); err != nil {
		t.Fatal(err)
	}
	added, removed := o.Mutations()
	if len(added) != 0 || len(removed) != 0 {
		t.Fatalf("cancelled batch has net mutations: added=%v removed=%v", added, removed)
	}
	if cg := o.Compact(); cg != g {
		t.Fatal("no-net-change Compact should return the base graph")
	}
}

func TestOverlayCompactMatchesRebuild(t *testing.T) {
	const n = 80
	rng := rand.New(rand.NewSource(7))
	base := overlayRandomGraph(t, n, 300, 3)
	for trial := 0; trial < 25; trial++ {
		o := NewOverlay(base)
		// Reference edge set, mutated in lockstep with the overlay.
		want := map[uint64]struct{}{}
		base.ForEachEdge(func(u, v NodeID) { want[Edge{U: u, V: v}.Key()] = struct{}{} })
		for i := 0; i < 40; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			k := Edge{U: u, V: v}.Key()
			if o.HasEdge(u, v) {
				if err := o.RemoveEdge(u, v); err != nil {
					t.Fatal(err)
				}
				delete(want, k)
			} else {
				if err := o.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
				want[k] = struct{}{}
			}
		}
		b := NewBuilder(n)
		for k := range want {
			e := EdgeFromKey(k)
			if err := b.AddEdge(e.U, e.V); err != nil {
				t.Fatal(err)
			}
		}
		wantG := b.Build()
		got := o.Compact()
		if got.NumEdges() != wantG.NumEdges() || o.NumEdges() != wantG.NumEdges() {
			t.Fatalf("trial %d: edge count %d/%d, want %d", trial, got.NumEdges(), o.NumEdges(), wantG.NumEdges())
		}
		gotOff, gotAdj := flatten(got)
		wantOff, wantAdj := flatten(wantG)
		if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) {
			t.Fatalf("trial %d: compacted CSR differs from rebuilt CSR", trial)
		}
		// The compacted graph must survive full structural validation.
		if _, err := NewFromCSR(gotOff, gotAdj); err != nil {
			t.Fatalf("trial %d: compacted CSR invalid: %v", trial, err)
		}
	}
}

// egoFingerprint flattens an ego network for comparison.
func egoFingerprint(g *Graph, u NodeID) []NodeID {
	en := g.Ego(u)
	out := slices.Clone(en.Members)
	out = append(out, NodeID(0xffffffff)) // separator
	off, adj := flatten(en.G)
	for _, o := range off {
		out = append(out, NodeID(o))
	}
	return append(out, adj...)
}

func TestOverlayDirtyNodesExact(t *testing.T) {
	const n = 60
	rng := rand.New(rand.NewSource(11))
	base := overlayRandomGraph(t, n, 240, 5)
	for trial := 0; trial < 20; trial++ {
		o := NewOverlay(base)
		// Net mutations only (no add/remove of the same pair), so the
		// dirty set must be exactly the changed ego networks.
		touched := map[uint64]struct{}{}
		for i := 0; i < 10; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			k := Edge{U: u, V: v}.Key()
			if _, dup := touched[k]; dup {
				continue
			}
			touched[k] = struct{}{}
			if o.HasEdge(u, v) {
				if err := o.RemoveEdge(u, v); err != nil {
					t.Fatal(err)
				}
			} else if err := o.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
		mutated := o.Compact()
		var changed []NodeID
		for u := 0; u < n; u++ {
			if !slices.Equal(egoFingerprint(base, NodeID(u)), egoFingerprint(mutated, NodeID(u))) {
				changed = append(changed, NodeID(u))
			}
		}
		dirty := o.DirtyNodes()
		// Every changed ego must be flagged (soundness)...
		for _, u := range changed {
			if !slices.Contains(dirty, u) {
				t.Fatalf("trial %d: node %d ego changed but not dirty", trial, u)
			}
		}
		// ...and every flagged ego must have changed (exactness), except
		// endpoints whose only mutation left the induced subgraph intact
		// is impossible for net mutations — so demand equality.
		if !slices.Equal(dirty, changed) {
			t.Fatalf("trial %d: dirty %v != changed %v", trial, dirty, changed)
		}
	}
}

func TestOverlayMarkNodeDirty(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}})
	o := NewOverlay(g)
	if err := o.MarkNodeDirty(9); err == nil {
		t.Fatal("out-of-range MarkNodeDirty accepted")
	}
	if err := o.MarkNodeDirty(2); err != nil {
		t.Fatal(err)
	}
	if got := o.DirtyNodes(); !slices.Equal(got, []NodeID{2}) {
		t.Fatalf("DirtyNodes = %v, want [2]", got)
	}
}

// TestCompactSharesUntouchedBlocks: after one epoch every block without a
// mutated endpoint is the base's own, by pointer, and every touched block
// is a new one.
func TestCompactSharesUntouchedBlocks(t *testing.T) {
	base := overlayRandomGraph(t, 1000, 5000, 7)
	o := NewOverlay(base)
	touched := map[NodeID]bool{}
	for _, e := range []Edge{{3, 700}, {63, 64}, {999, 0}, {500, 510}} {
		toggle(t, o, e.U, e.V)
		touched[e.U>>blockShift], touched[e.V>>blockShift] = true, true
	}
	g := o.Compact()
	if len(g.blocks) != len(base.blocks) {
		t.Fatalf("%d blocks, base has %d", len(g.blocks), len(base.blocks))
	}
	for i, b := range g.blocks {
		if shared := b == base.blocks[i]; shared == touched[NodeID(i)] {
			t.Fatalf("block %d: shared with the base %v, touched %v", i, shared, touched[NodeID(i)])
		}
	}
}

// TestCompactAllocatesLittle bounds what one epoch's compaction allocates
// on the write benchmark's shape (10 000 nodes, ~100 000 edges): the block
// pointer table and the touched blocks, not a copy of every row or block.
// 50 chained one-add compactions must average under a quarter byte per
// edge (≈ 12.6 KB an epoch; cloning the blocks themselves cost ≈ 60 KB,
// copying the adjacency eight bytes per edge).
func TestCompactAllocatesLittle(t *testing.T) {
	const n, m = 10_000, 100_000
	g := overlayRandomGraph(t, n, m, 1)
	var before, after runtime.MemStats
	total := uint64(0)
	for i := 0; i < 50; i++ {
		u := NodeID(i * 197 % n)
		v := NodeID(0)
		for v == u || g.HasEdge(u, v) {
			v++
		}
		o := NewOverlay(g)
		if err := o.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		g = o.Compact()
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	if avg := total / 50; avg >= m/4 {
		t.Fatalf("Compact allocated %d B per one-add epoch, want < %d (a quarter byte per edge)", avg, m/4)
	} else {
		t.Logf("Compact allocated %d B per one-add epoch", avg)
	}
}
