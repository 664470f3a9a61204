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
		return o.base // nothing changed; CSR is immutable, so sharing is safe
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
	return &Graph{
		offsets: offsets,
		adj:     adj,
		m:       o.base.NumEdges() + len(o.added) - len(o.removed),
	}
}

// assertCompactMatchesReference compares the run-copy Compact with the
// per-node reference on the overlay's current state: == on both CSR
// arrays, and the result must pass NewFromCSR's structural validation.
func assertCompactMatchesReference(t *testing.T, what string, o *Overlay) {
	t.Helper()
	baseOff, baseAdj := slices.Clone(o.base.offsets), slices.Clone(o.base.adj)
	got, want := o.Compact(), o.compactReference()
	gotOff, gotAdj := got.CSR()
	wantOff, wantAdj := want.CSR()
	if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: compacted CSR differs from the reference\n got %v %v\nwant %v %v", what, gotOff, gotAdj, wantOff, wantAdj)
	}
	if _, err := NewFromCSR(gotOff, gotAdj); err != nil {
		t.Fatalf("%s: compacted CSR invalid: %v", what, err)
	}
	if !slices.Equal(o.base.offsets, baseOff) || !slices.Equal(o.base.adj, baseAdj) {
		t.Fatalf("%s: Compact wrote into the base graph", what)
	}
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
	rng := rand.New(rand.NewSource(1))
	b := NewBuilder(10_000)
	for b.NumEdges() < 100_000 {
		if u, v := NodeID(rng.Intn(10_000)), NodeID(rng.Intn(10_000)); u != v {
			_ = b.AddEdge(u, v)
		}
	}
	g := b.Build()
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
