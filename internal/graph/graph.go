// Package graph provides a compact undirected graph representation used
// throughout the LoCEC pipeline: sorted adjacency rows in a table of
// 64-row blocks, with fast neighbor queries and ego-network extraction.
//
// Node identifiers are dense uint32 indices in [0, NumNodes). Edges are
// undirected and stored once per direction in the adjacency rows; parallel
// edges and self-loops are rejected by the Builder.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a node in a Graph. IDs are dense: a graph with n nodes
// uses IDs 0..n-1.
type NodeID = uint32

// Edge is an undirected edge between two nodes. Canonical form has U < V.
type Edge struct {
	U, V NodeID
}

// Canon returns the edge in canonical order (smaller endpoint first).
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Key packs the canonical edge into a single uint64, suitable as a map key.
func (e Edge) Key() uint64 {
	c := e.Canon()
	return uint64(c.U)<<32 | uint64(c.V)
}

// EdgeFromKey reverses Edge.Key.
func EdgeFromKey(k uint64) Edge {
	return Edge{NodeID(k >> 32), NodeID(k & 0xffffffff)}
}

// blockRows is the number of adjacency rows per block: node u's row lives
// in block u>>blockShift at row u&(blockRows-1).
const (
	blockShift = 6
	blockRows  = 1 << blockShift
)

// block holds the sorted neighbor lists of 64 consecutive nodes: row r is
// adj[off[r]:off[r+1]]. The offsets are inline so a row lookup costs the
// same dependent loads as one flat offsets array; rows past the last node
// of the graph are empty.
type block struct {
	off [blockRows + 1]int32
	adj []NodeID
}

// Graph is an immutable undirected graph stored as a table of 64-row
// blocks. Blocks are never written after construction, so graphs derived
// from one another (Overlay.Compact) share every block they did not change.
//
// The zero value is an empty graph. Construct graphs with a Builder.
type Graph struct {
	blocks []block
	n      int // number of nodes
	m      int // number of undirected edges
}

// cut sets g to the graph whose row u is adj[offsets[u]:offsets[u+1]],
// reusing g's block table: each block copies its rows' offsets, rebased to
// its first arc, and views its span of adj (capped, so no block reaches
// into the next one's rows). adj is retained, not copied.
func (g *Graph) cut(offsets []int32, adj []NodeID) {
	n := len(offsets) - 1
	nb := (n + blockRows - 1) >> blockShift
	g.blocks = slices.Grow(g.blocks[:0], nb)[:nb]
	for i := range g.blocks {
		b, lo := &g.blocks[i], i<<blockShift
		rows := offsets[lo : min(lo+blockRows, n)+1]
		for r := range b.off {
			b.off[r] = rows[min(r, len(rows)-1)] - rows[0]
		}
		b.adj = adj[rows[0]:rows[len(rows)-1]:rows[len(rows)-1]]
	}
	g.n, g.m = n, len(adj)/2
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.m }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u NodeID) int {
	b, r := &g.blocks[u>>blockShift], u&(blockRows-1)
	return int(b.off[r+1] - b.off[r])
}

// Neighbors returns the sorted neighbor list of u. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	b, r := &g.blocks[u>>blockShift], u&(blockRows-1)
	return b.adj[b.off[r]:b.off[r+1]]
}

// HasEdge reports whether the undirected edge {u,v} exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if int(u) >= g.NumNodes() || int(v) >= g.NumNodes() {
		return false
	}
	ns := g.Neighbors(u)
	// Binary search the sorted neighbor list.
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// Edges returns all undirected edges in canonical order (U < V), sorted.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(NodeID(u)) {
			if NodeID(u) < v {
				out = append(out, Edge{NodeID(u), v})
			}
		}
	}
	return out
}

// ForEachEdge calls fn once per undirected edge in canonical order.
// It avoids materializing the edge slice for large graphs.
func (g *Graph) ForEachEdge(fn func(u, v NodeID)) {
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(NodeID(u)) {
			if NodeID(u) < v {
				fn(NodeID(u), v)
			}
		}
	}
}

// Builder accumulates edges and produces an immutable Graph.
// It deduplicates edges and rejects self-loops.
//
// Edges are kept as an append-only list of canonical uint64 keys and
// sorted + compacted lazily — on Build and on the first HasEdge/NumEdges
// after a mutation — instead of living in a hash map. Construction is the
// setup cost of every bench fixture and of POST /v1/reload, and the
// sorted-key representation makes the adjacency fill a single counting
// pass with no per-node sort (see Build).
type Builder struct {
	n      int
	edges  []uint64 // canonical edge keys; unsorted tail may hold duplicates
	sorted bool     // edges is sorted and duplicate-free
}

// NewBuilder creates a Builder for a graph with n nodes (IDs 0..n-1).
func NewBuilder(n int) *Builder {
	return &Builder{n: n, sorted: true}
}

// ensureSorted sorts the key list and drops duplicates.
func (b *Builder) ensureSorted() {
	if b.sorted {
		return
	}
	slices.Sort(b.edges)
	b.edges = slices.Compact(b.edges)
	b.sorted = true
}

// NumNodes returns the node count the builder was created with.
func (b *Builder) NumNodes() int { return b.n }

// NumEdges returns the number of distinct edges added so far.
func (b *Builder) NumEdges() int {
	b.ensureSorted()
	return len(b.edges)
}

// AddEdge records the undirected edge {u,v}. Duplicate edges are ignored.
// It returns an error for self-loops or out-of-range endpoints.
func (b *Builder) AddEdge(u, v NodeID) error {
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d", u)
	}
	if int(u) >= b.n || int(v) >= b.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range (n=%d)", u, v, b.n)
	}
	k := Edge{u, v}.Key()
	// Appending in already-sorted order (common for generators that sweep
	// node IDs) keeps the list sorted for free; anything else defers the
	// sort to the next Build/HasEdge/NumEdges.
	if b.sorted && len(b.edges) > 0 {
		switch last := b.edges[len(b.edges)-1]; {
		case k == last:
			return nil
		case k < last:
			b.sorted = false
		}
	}
	b.edges = append(b.edges, k)
	return nil
}

// HasEdge reports whether {u,v} was already added.
func (b *Builder) HasEdge(u, v NodeID) bool {
	b.ensureSorted()
	_, ok := slices.BinarySearch(b.edges, Edge{u, v}.Key())
	return ok
}

// Build produces the immutable graph. The Builder may be reused
// afterwards, but further AddEdge calls do not affect the built Graph.
//
// The fill is a counting sort over the sorted key list: one pass counts
// degrees, a prefix sum turns them into offsets, and one scatter pass
// writes both directions of every edge. Because keys sort by (U, V) and
// every neighbor list receives first the smaller-endpoint entries (in
// ascending U as the sweep passes each smaller node) and then the
// larger-endpoint entries (in ascending V while the sweep sits on the
// node itself), each adjacency list comes out sorted with no per-node
// sort pass.
func (b *Builder) Build() *Graph {
	b.ensureSorted()
	deg := make([]int32, b.n+1)
	for _, k := range b.edges {
		e := EdgeFromKey(k)
		deg[e.U+1]++
		deg[e.V+1]++
	}
	for i := 1; i <= b.n; i++ {
		deg[i] += deg[i-1]
	}
	adj := make([]NodeID, deg[b.n])
	cursor := make([]int32, b.n)
	for _, k := range b.edges {
		e := EdgeFromKey(k)
		adj[deg[e.U]+cursor[e.U]] = e.V
		cursor[e.U]++
		adj[deg[e.V]+cursor[e.V]] = e.U
		cursor[e.V]++
	}
	g := new(Graph)
	g.cut(deg, adj)
	return g
}

// FromEdges builds a graph directly from an edge list, ignoring duplicates.
// It panics on invalid edges; use a Builder for error handling.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V); err != nil {
			panic(err)
		}
	}
	return b.Build()
}
