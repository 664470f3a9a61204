package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Overlay is a mutable edge delta over an immutable base Graph — the write
// side of the incremental update engine. Mutations accumulate in the
// overlay (one epoch's worth of AddEdge/RemoveEdge calls); Compact then
// merges them into a fresh immutable graph (the untouched 64-row blocks
// shared with the base, the touched ones rebuilt), and DirtyNodes reports
// exactly the nodes whose ego networks the batch invalidated.
//
// The node set is fixed: an overlay mutates edges among the base graph's
// existing nodes. Edge queries (HasEdge, NumEdges) reflect the overlay
// state, i.e. base ∪ added − removed.
//
// An Overlay is not safe for concurrent use; the Graphs it produces are.
type Overlay struct {
	base *Graph
	// added / removed partition the delta: a key is in at most one of the
	// two. added keys are absent from base; removed keys are present in it.
	added   map[uint64]struct{}
	removed map[uint64]struct{}
	// dirty accumulates the nodes whose ego networks a mutation changed:
	// the endpoints of every mutated edge plus the base-graph common
	// neighbors of its endpoints (see DirtyNodes for why that is exact).
	dirty map[NodeID]struct{}
}

// NewOverlay creates an empty overlay over base.
func NewOverlay(base *Graph) *Overlay {
	return &Overlay{
		base:    base,
		added:   map[uint64]struct{}{},
		removed: map[uint64]struct{}{},
		dirty:   map[NodeID]struct{}{},
	}
}

// check validates endpoints against the base graph's node range.
func (o *Overlay) check(u, v NodeID) error {
	if u == v {
		return fmt.Errorf("graph: overlay: self-loop on node %d", u)
	}
	if n := o.base.NumNodes(); int(u) >= n || int(v) >= n {
		return fmt.Errorf("graph: overlay: edge {%d,%d} out of range (n=%d)", u, v, n)
	}
	return nil
}

// HasEdge reports whether {u,v} exists in the overlay state.
func (o *Overlay) HasEdge(u, v NodeID) bool {
	if int(u) >= o.base.NumNodes() || int(v) >= o.base.NumNodes() {
		return false
	}
	k := Edge{U: u, V: v}.Key()
	if _, ok := o.added[k]; ok {
		return true
	}
	if _, ok := o.removed[k]; ok {
		return false
	}
	return o.base.HasEdge(u, v)
}

// NumEdges returns the overlay state's undirected edge count.
func (o *Overlay) NumEdges() int {
	return o.base.NumEdges() + len(o.added) - len(o.removed)
}

// markDirty records the ego networks edge {u,v} invalidates: the two
// endpoints (their ego membership changes) and every base-graph common
// neighbor w (the edge lies inside ego(w) because both endpoints are
// members). Nodes whose own adjacency a batch changes are always endpoints
// of some mutation, so the base adjacency is authoritative for everyone
// else — see DirtyNodes.
func (o *Overlay) markDirty(u, v NodeID) {
	o.dirty[u] = struct{}{}
	o.dirty[v] = struct{}{}
	a, b := o.base.Neighbors(u), o.base.Neighbors(v)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			o.dirty[a[i]] = struct{}{}
			i++
			j++
		}
	}
}

// AddEdge records the undirected edge {u,v}. It is an error if the edge
// already exists in the overlay state.
func (o *Overlay) AddEdge(u, v NodeID) error {
	if err := o.check(u, v); err != nil {
		return err
	}
	k := Edge{U: u, V: v}.Key()
	switch {
	case o.base.HasEdge(u, v):
		if _, gone := o.removed[k]; !gone {
			return fmt.Errorf("graph: overlay: edge {%d,%d} already exists", u, v)
		}
		delete(o.removed, k) // re-add of a removed base edge
	default:
		if _, dup := o.added[k]; dup {
			return fmt.Errorf("graph: overlay: edge {%d,%d} already exists", u, v)
		}
		o.added[k] = struct{}{}
	}
	o.markDirty(u, v)
	return nil
}

// RemoveEdge deletes the undirected edge {u,v}. It is an error if the edge
// does not exist in the overlay state.
func (o *Overlay) RemoveEdge(u, v NodeID) error {
	if err := o.check(u, v); err != nil {
		return err
	}
	k := Edge{U: u, V: v}.Key()
	if _, ok := o.added[k]; ok {
		delete(o.added, k) // retract an edge added earlier in the batch
		o.markDirty(u, v)
		return nil
	}
	if !o.base.HasEdge(u, v) {
		return fmt.Errorf("graph: overlay: edge {%d,%d} does not exist", u, v)
	}
	if _, dup := o.removed[k]; dup {
		return fmt.Errorf("graph: overlay: edge {%d,%d} does not exist", u, v)
	}
	o.removed[k] = struct{}{}
	o.markDirty(u, v)
	return nil
}

// Mutations returns the net edge delta relative to the base graph, each
// list sorted by canonical key. Edges added and then removed inside the
// same overlay (or vice versa) cancel and appear in neither list.
func (o *Overlay) Mutations() (added, removed []Edge) {
	added = make([]Edge, 0, len(o.added))
	for k := range o.added {
		added = append(added, EdgeFromKey(k))
	}
	removed = make([]Edge, 0, len(o.removed))
	for k := range o.removed {
		removed = append(removed, EdgeFromKey(k))
	}
	cmp := func(a, b Edge) int {
		if a.Key() < b.Key() {
			return -1
		}
		if a.Key() > b.Key() {
			return 1
		}
		return 0
	}
	slices.SortFunc(added, cmp)
	slices.SortFunc(removed, cmp)
	return added, removed
}

// DirtyNodes returns, sorted, every node whose ego network differs between
// the base graph and the overlay state. The set is exact for net
// mutations and a superset only when a batch cancels itself out (an edge
// added then removed still dirties its endpoints and witnesses):
//
//   - An endpoint of a mutated edge gains or loses an ego member.
//   - A common neighbor w of the endpoints has the mutated edge inside its
//     ego network (both endpoints are members of ego(w)).
//   - Nobody else: for a node w that is not an endpoint of any mutation,
//     N(w) is identical in base and overlay, so ego(w) changes only if a
//     mutated edge has both endpoints inside N(w) — which makes w a common
//     neighbor as seen by the base graph.
//
// Relabel-style metadata changes are outside the overlay's scope; callers
// track those endpoints themselves.
func (o *Overlay) DirtyNodes() []NodeID {
	out := make([]NodeID, 0, len(o.dirty))
	for u := range o.dirty {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}

// MarkNodeDirty adds a node to the dirty set without an edge mutation —
// the hook metadata-only changes (e.g. an edge relabel, which shifts a
// community's ground-truth votes inside the endpoint egos) use so one
// dirty set drives the whole recompute.
func (o *Overlay) MarkNodeDirty(u NodeID) error {
	if int(u) >= o.base.NumNodes() {
		return fmt.Errorf("graph: overlay: node %d out of range (n=%d)", u, o.base.NumNodes())
	}
	o.dirty[u] = struct{}{}
	return nil
}

// deltaArc is one direction of a mutated edge: node u gains (add) or loses
// neighbor v.
type deltaArc struct {
	u, v NodeID
	add  bool
}

// Compact merges the delta into a fresh immutable Graph at the cost of
// what the batch touched plus one copy of the block table: the new graph
// shares every 64-row block without a mutated endpoint with the base, and
// each touched block is rebuilt with its touched rows merged entry by entry
// and its other rows copied. No global edge sort — the base adjacency is
// already sorted and each touched row's delta is merged in order.
func (o *Overlay) Compact() *Graph {
	if len(o.added) == 0 && len(o.removed) == 0 {
		return o.base // nothing changed; graphs are immutable, so sharing is safe
	}
	// Both directions of every mutated edge, grouped by row and ascending
	// within it (Δ is tiny relative to E, so this sort is the cheap part).
	arcs := make([]deltaArc, 0, 2*(len(o.added)+len(o.removed)))
	for k := range o.added {
		e := EdgeFromKey(k)
		arcs = append(arcs, deltaArc{e.U, e.V, true}, deltaArc{e.V, e.U, true})
	}
	for k := range o.removed {
		e := EdgeFromKey(k)
		arcs = append(arcs, deltaArc{e.U, e.V, false}, deltaArc{e.V, e.U, false})
	}
	slices.SortFunc(arcs, func(a, b deltaArc) int {
		if c := cmp.Compare(a.u, b.u); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})

	g := &Graph{
		blocks: slices.Clone(o.base.blocks),
		n:      o.base.n,
		m:      o.base.m + len(o.added) - len(o.removed),
	}
	for len(arcs) > 0 {
		bi := arcs[0].u >> blockShift
		grow, k := 0, 0
		for ; k < len(arcs) && arcs[k].u>>blockShift == bi; k++ {
			if arcs[k].add {
				grow++
			} else {
				grow--
			}
		}
		g.blocks[bi] = o.base.blocks[bi].merged(arcs[:k], grow)
		arcs = arcs[k:]
	}
	return g
}

// merged returns a copy of b with the delta arcs of its rows applied: arcs
// are sorted by (row, neighbor) and grow is their net arc count. Base runs
// between delta entries are copied whole, an added neighbor is inserted in
// order, a removed one skipped. Added edges are absent from base and
// removed ones present, so each delta entry lands on exactly one side.
func (b *block) merged(arcs []deltaArc, grow int) block {
	nb := block{adj: make([]NodeID, len(b.adj)+grow)}
	w := int32(0)
	for r := range blockRows {
		nb.off[r] = w
		row := b.adj[b.off[r]:b.off[r+1]]
		for ; len(arcs) > 0 && int(arcs[0].u&(blockRows-1)) == r; arcs = arcs[1:] {
			a := arcs[0]
			at, found := slices.BinarySearch(row, a.v)
			if found == a.add {
				panic(fmt.Sprintf("graph: overlay: delta of node %d inconsistent with base at neighbor %d", a.u, a.v))
			}
			w += int32(copy(nb.adj[w:], row[:at]))
			row = row[at:]
			if a.add {
				nb.adj[w] = a.v
				w++
			} else {
				row = row[1:]
			}
		}
		w += int32(copy(nb.adj[w:], row))
	}
	nb.off[blockRows] = w
	if int(w) != len(nb.adj) {
		// Defensive: the degree arithmetic and the merge must agree; a
		// mismatch means the delta sets were inconsistent.
		panic(fmt.Sprintf("graph: overlay: block compacted to %d arcs, expected %d", w, len(nb.adj)))
	}
	return nb
}
