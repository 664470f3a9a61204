package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The per-node Compact loop the overlay used before the run-copy version
// replaced it, kept verbatim as the oracle the new one is tested against.
// Nothing outside tests calls it.

// compactReference merges the delta into a fresh immutable Graph in one counting
// pass plus one scatter pass over base arcs and delta arcs — O(E + Δ),
// with no global edge sort (the base adjacency is already sorted and each
// node's delta is merged in order).
func (o *Overlay) compactReference() *Graph {
	n := o.base.NumNodes()
	if len(o.added) == 0 && len(o.removed) == 0 {
		return o.base // nothing changed; graphs are immutable, so sharing is safe
	}
	// Per-node sorted delta adjacency. addBy/removeBy hold each endpoint's
	// counterpart, built from the sorted key lists so each per-node list
	// needs no own sort for the smaller-endpoint direction; the reverse
	// direction is appended afterwards and sorted per node (Δ is tiny
	// relative to E).
	addBy := make(map[NodeID][]NodeID, 2*len(o.added))
	removeBy := make(map[NodeID]map[NodeID]struct{}, 2*len(o.removed))
	for k := range o.added {
		e := EdgeFromKey(k)
		addBy[e.U] = append(addBy[e.U], e.V)
		addBy[e.V] = append(addBy[e.V], e.U)
	}
	for u := range addBy {
		slices.Sort(addBy[u])
	}
	for k := range o.removed {
		e := EdgeFromKey(k)
		for _, p := range [2][2]NodeID{{e.U, e.V}, {e.V, e.U}} {
			m := removeBy[p[0]]
			if m == nil {
				m = make(map[NodeID]struct{}, 2)
				removeBy[p[0]] = m
			}
			m[p[1]] = struct{}{}
		}
	}
	offsets := make([]int32, n+1)
	for u := 0; u < n; u++ {
		deg := o.base.Degree(NodeID(u)) + len(addBy[NodeID(u)]) - len(removeBy[NodeID(u)])
		offsets[u+1] = offsets[u] + int32(deg)
	}
	adj := make([]NodeID, offsets[n])
	for u := 0; u < n; u++ {
		row := adj[offsets[u]:offsets[u]:offsets[u+1]]
		baseRow := o.base.Neighbors(NodeID(u))
		addRow := addBy[NodeID(u)]
		gone := removeBy[NodeID(u)]
		i, j := 0, 0
		for i < len(baseRow) || j < len(addRow) {
			// added edges are absent from base and removed ones present,
			// so the two merge streams never collide on a value.
			if j >= len(addRow) || (i < len(baseRow) && baseRow[i] < addRow[j]) {
				if _, drop := gone[baseRow[i]]; !drop {
					row = append(row, baseRow[i])
				}
				i++
			} else {
				row = append(row, addRow[j])
				j++
			}
		}
		if len(row) != int(offsets[u+1]-offsets[u]) {
			// Defensive: the degree arithmetic above and the merge must
			// agree; a mismatch means the delta sets were inconsistent.
			panic(fmt.Sprintf("graph: overlay: node %d compacted to %d neighbors, expected %d",
				u, len(row), offsets[u+1]-offsets[u]))
		}
	}
	g := new(Graph)
	g.cut(offsets, adj)
	return g
}

// assertCompactMatchesReference compares the block Compact with the
// per-node reference on the overlay's current state: == on the flattened
// rows, and the result must pass NewFromCSR's structural validation. The
// receiver's rows must come out of the compaction as they went in. It
// returns the compacted graph, so epochs can chain.
func assertCompactMatchesReference(t *testing.T, what string, o *Overlay) *Graph {
	t.Helper()
	baseOff, baseAdj := flatten(o.base)
	got, want := o.Compact(), o.compactReference()
	gotOff, gotAdj := flatten(got)
	wantOff, wantAdj := flatten(want)
	if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: compacted rows differ from the reference\n got %v %v\nwant %v %v", what, gotOff, gotAdj, wantOff, wantAdj)
	}
	if _, err := NewFromCSR(gotOff, gotAdj); err != nil {
		t.Fatalf("%s: compacted rows invalid: %v", what, err)
	}
	if off, adj := flatten(o.base); !slices.Equal(off, baseOff) || !slices.Equal(adj, baseAdj) {
		t.Fatalf("%s: Compact wrote into the base graph", what)
	}
	return got
}

// toggle adds {u,v} to the overlay state if absent and removes it if
// present; a self-loop is a no-op.
func toggle(t *testing.T, o *Overlay, u, v NodeID) {
	t.Helper()
	var err error
	switch {
	case u == v:
	case o.HasEdge(u, v):
		err = o.RemoveEdge(u, v)
	default:
		err = o.AddEdge(u, v)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestOverlayCompactBlockBoundaries pins Compact against the reference where
// a 64-row block can go wrong: graphs of less than one block, exactly one,
// one row over and several; mutations on rows 63 and 64 (either side of the
// first boundary) and on the last row (a partial block); a row emptied; and
// a block whose every row changes.
func TestOverlayCompactBlockBoundaries(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		base := overlayRandomGraph(t, n, 3*(n-1), int64(n))
		last := NodeID(n - 1)
		cases := map[string]func(o *Overlay){
			"nothing": func(*Overlay) {},
			"boundary rows": func(o *Overlay) {
				for _, r := range []NodeID{63, 64, last} {
					for _, w := range []NodeID{0, r / 2, last} {
						if r < NodeID(n) {
							toggle(t, o, r, w)
						}
					}
				}
			},
			"row emptied": func(o *Overlay) {
				for _, r := range []NodeID{min(64, last), last} {
					for _, w := range base.Neighbors(r) {
						if o.HasEdge(r, w) {
							toggle(t, o, r, w)
						}
					}
				}
			},
			"block rewritten": func(o *Overlay) {
				for r := NodeID(0); r < min(blockRows, NodeID(n)); r++ {
					toggle(t, o, r, (r+7)%NodeID(n))
				}
			},
		}
		for name, mutate := range cases {
			o := NewOverlay(base)
			mutate(o)
			assertCompactMatchesReference(t, fmt.Sprintf("n=%d %s", n, name), o)
		}
	}
}

// TestOverlayCompactChained runs 500 epochs, each compacting onto the last
// one's result, with mutations biased to the rows around block boundaries.
func TestOverlayCompactChained(t *testing.T) {
	const n = 130
	rng := rand.New(rand.NewSource(29))
	hot := []NodeID{0, 62, 63, 64, 65, 127, 128, n - 1}
	pick := func() NodeID {
		if rng.Intn(2) == 0 {
			return hot[rng.Intn(len(hot))]
		}
		return NodeID(rng.Intn(n))
	}
	g := overlayRandomGraph(t, n, 400, 29)
	for epoch := 0; epoch < 500; epoch++ {
		o := NewOverlay(g)
		for ops := 1 + rng.Intn(4); ops > 0; ops-- {
			toggle(t, o, pick(), pick())
		}
		g = assertCompactMatchesReference(t, fmt.Sprintf("epoch %d", epoch), o)
	}
}

// TestOverlayCompactSiblingsIsolated compacts two overlays of one base that
// touch the same blocks: each result equals its own reference, whichever
// compacts first, so neither sees the other's rows through a shared block.
func TestOverlayCompactSiblingsIsolated(t *testing.T) {
	base := overlayRandomGraph(t, 130, 500, 31)
	a, b := NewOverlay(base), NewOverlay(base)
	for r := NodeID(60); r < 70; r++ {
		toggle(t, a, r, r+40)
		toggle(t, b, r, r+41)
	}
	toggle(t, b, 129, 0)
	wantA, wantB := a.compactReference(), b.compactReference()
	ga := assertCompactMatchesReference(t, "first sibling", a)
	gb := assertCompactMatchesReference(t, "second sibling", b)
	for _, c := range []struct {
		what      string
		got, want *Graph
	}{{"first sibling after the second", ga, wantA}, {"second sibling", gb, wantB}} {
		gotOff, gotAdj := flatten(c.got)
		wantOff, wantAdj := flatten(c.want)
		if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) {
			t.Fatalf("%s: rows changed by the other overlay's compaction", c.what)
		}
	}
}

// FuzzOverlayCompact drives chained compactions from raw bytes: the first
// byte sizes the graph (1–256 nodes), the second seeds its random edges,
// then every two bytes toggle one edge — a pair naming one node twice ends
// the epoch — so a crasher spells out its own epochs.
func FuzzOverlayCompact(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{63, 1, 63, 0, 62, 63, 5, 5, 63, 0})
	f.Add([]byte{129, 2, 63, 64, 64, 129, 0, 0, 63, 64, 1, 128})
	f.Add([]byte{64, 3, 0, 64, 64, 63, 9, 9, 64, 0, 64, 1, 64, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0]) + 1
		g := overlayRandomGraph(t, n, min(int(data[1])*4, n*(n-1)/2), int64(data[1]))
		o := NewOverlay(g)
		for b := data[2:]; len(b) >= 2; b = b[2:] {
			u, v := NodeID(int(b[0])%n), NodeID(int(b[1])%n)
			if u == v {
				g = assertCompactMatchesReference(t, "fuzz epoch", o)
				o = NewOverlay(g)
				continue
			}
			toggle(t, o, u, v)
		}
		assertCompactMatchesReference(t, "fuzz final epoch", o)
	})
}

// TestOverlayCompactMatchesReference pins the run-copy Compact against the
// per-node loop it replaced, on the shapes where a block copy can go wrong:
// the first and last node touched, adjacent touched nodes, a node that
// gains and loses a neighbor in one batch, rows emptied or created from
// nothing, and random batches of every size.
func TestOverlayCompactMatchesReference(t *testing.T) {
	path := FromEdges(8, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}})
	cases := []struct {
		name        string
		base        *Graph
		add, remove []Edge
	}{
		{"add at first and last node", path, []Edge{{0, 7}}, nil},
		{"remove first edge", path, nil, []Edge{{0, 1}}},
		{"remove last edge", path, nil, []Edge{{6, 7}}},
		{"adjacent touched nodes", path, []Edge{{2, 4}, {3, 5}}, nil},
		{"add and remove on one node", path, []Edge{{3, 6}}, []Edge{{3, 4}}},
		{"add below and above a removed neighbor", path, []Edge{{3, 0}, {3, 7}}, []Edge{{2, 3}, {3, 4}}},
		{"row emptied", path, nil, []Edge{{0, 1}, {1, 2}}},
		{"all removed", path, nil, path.Edges()},
		{"empty base gains edges", FromEdges(4, nil), []Edge{{0, 3}, {1, 2}}, nil},
		{"isolated node gains a row", FromEdges(5, []Edge{{0, 1}, {3, 4}}), []Edge{{2, 0}, {2, 4}}, nil},
	}
	for _, c := range cases {
		o := NewOverlay(c.base)
		for _, e := range c.add {
			if err := o.AddEdge(e.U, e.V); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		for _, e := range c.remove {
			if err := o.RemoveEdge(e.U, e.V); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		assertCompactMatchesReference(t, c.name, o)
	}

	const n = 60
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 150; trial++ {
		base := overlayRandomGraph(t, n, rng.Intn(250), int64(trial))
		o := NewOverlay(base)
		for ops := 1 + rng.Intn(1<<uint(rng.Intn(8))); ops > 0; ops-- {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			switch {
			case u == v:
			case o.HasEdge(u, v):
				_ = o.RemoveEdge(u, v)
			default:
				_ = o.AddEdge(u, v)
			}
		}
		assertCompactMatchesReference(t, fmt.Sprintf("random trial %d", trial), o)
	}
}

// compactBench100k is one epoch's topology change at the write benchmark's
// scale: 10 000 nodes, 100 000 edges, one edge added and one removed.
func compactBench100k(tb testing.TB) *Overlay {
	g := overlayRandomGraph(tb, 10_000, 100_000, 1)
	o := NewOverlay(g)
	if err := o.RemoveEdge(2_000, g.Neighbors(2_000)[0]); err != nil {
		tb.Fatal(err)
	}
	for v := NodeID(0); ; v++ {
		if v != 7_000 && !g.HasEdge(7_000, v) {
			if err := o.AddEdge(7_000, v); err != nil {
				tb.Fatal(err)
			}
			return o
		}
	}
}

var compactSink *Graph

func BenchmarkOverlayCompact100k(b *testing.B) {
	o := compactBench100k(b)
	b.ReportAllocs()
	for b.Loop() {
		compactSink = o.Compact()
	}
}

// BenchmarkOverlayCompactReference100k is the same compaction through the
// per-node loop, for the before/after number.
func BenchmarkOverlayCompactReference100k(b *testing.B) {
	o := compactBench100k(b)
	b.ReportAllocs()
	for b.Loop() {
		compactSink = o.compactReference()
	}
}
