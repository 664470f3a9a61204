package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Overlay is a mutable edge delta over an immutable base Graph — the write
// side of the incremental update engine. Mutations accumulate in the
// overlay (one epoch's worth of AddEdge/RemoveEdge calls); Compact then
// merges them into a fresh immutable CSR graph (block copies of the
// untouched rows, a merge of the touched ones), and DirtyNodes
// reports exactly the nodes whose ego networks the batch invalidated.
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

// Base returns the immutable graph the overlay mutates.
func (o *Overlay) Base() *Graph { return o.base }

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
// what the batch touched plus two block copies: only the rows of mutated
// endpoints are merged entry by entry; every run of untouched rows between
// them keeps its adjacency verbatim (one copy per run) and its offsets
// shifted by the constant the rows before it grew or shrank by. No global
// edge sort — the base adjacency is already sorted and each touched row's
// delta is merged in order.
func (o *Overlay) Compact() *Graph {
	if len(o.added) == 0 && len(o.removed) == 0 {
		return o.base // nothing changed; CSR is immutable, so sharing is safe
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

	n := o.base.NumNodes()
	baseOff, baseAdj := o.base.offsets, o.base.adj
	offsets := make([]int32, n+1)
	adj := make([]NodeID, len(baseAdj)+2*(len(o.added)-len(o.removed)))
	// copyRows writes the untouched rows [from, to): offsets shifted by
	// the running delta, adjacency as one block.
	shift := int32(0)
	copyRows := func(from, to int) {
		for w := from; w < to; w++ {
			offsets[w] = baseOff[w] + shift
		}
		copy(adj[baseOff[from]+shift:], baseAdj[baseOff[from]:baseOff[to]])
	}
	from := 0 // first row not yet written
	for len(arcs) > 0 {
		u := arcs[0].u
		rowDelta := arcs
		for i, a := range arcs {
			if a.u != u {
				rowDelta = arcs[:i]
				break
			}
		}
		arcs = arcs[len(rowDelta):]
		copyRows(from, int(u))
		offsets[u] = baseOff[u] + shift
		// Merge the touched row: base runs between delta entries are
		// copied whole, an added neighbor is inserted in order, a removed
		// one skipped. Added edges are absent from base and removed ones
		// present, so each delta entry lands on exactly one side.
		baseRow := o.base.Neighbors(u)
		w := int(offsets[u])
		for _, a := range rowDelta {
			at, found := slices.BinarySearch(baseRow, a.v)
			if found == a.add {
				panic(fmt.Sprintf("graph: overlay: delta of node %d inconsistent with base at neighbor %d", u, a.v))
			}
			w += copy(adj[w:], baseRow[:at])
			baseRow = baseRow[at:]
			if a.add {
				adj[w] = a.v
				w++
			} else {
				baseRow = baseRow[1:]
			}
		}
		w += copy(adj[w:], baseRow)
		shift = int32(w) - baseOff[u+1]
		from = int(u) + 1
	}
	copyRows(from, n)
	offsets[n] = baseOff[n] + shift
	if int(offsets[n]) != len(adj) {
		// Defensive: the degree arithmetic and the merge must agree; a
		// mismatch means the delta sets were inconsistent.
		panic(fmt.Sprintf("graph: overlay: compacted to %d arcs, expected %d", offsets[n], len(adj)))
	}
	return &Graph{
		offsets: offsets,
		adj:     adj,
		m:       o.base.NumEdges() + len(o.added) - len(o.removed),
	}
}
