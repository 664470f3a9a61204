// Package graph provides a compact undirected graph representation used
// throughout the LoCEC pipeline: a CSR (compressed sparse row) adjacency
// structure with fast neighbor queries, ego-network extraction,
// traversal, and connected components.
//
// Node identifiers are dense uint32 indices in [0, NumNodes). Edges are
// undirected and stored once per direction in the CSR arrays; parallel
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

// Graph is an immutable undirected graph in CSR form.
//
// The zero value is an empty graph. Construct graphs with a Builder.
type Graph struct {
	offsets []int32  // len = n+1; neighbor range of node i is adj[offsets[i]:offsets[i+1]]
	adj     []NodeID // sorted neighbor lists, concatenated
	m       int      // number of undirected edges
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.m }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u NodeID) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors returns the sorted neighbor list of u. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	return g.adj[g.offsets[u]:g.offsets[u+1]]
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

// CommonNeighbors returns the number of common neighbors of u and v,
// using a linear merge over the two sorted adjacency lists.
func (g *Graph) CommonNeighbors(u, v NodeID) int {
	a, b := g.Neighbors(u), g.Neighbors(v)
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Builder accumulates edges and produces an immutable Graph.
// It deduplicates edges and rejects self-loops.
//
// Edges are kept as an append-only list of canonical uint64 keys and
// sorted + compacted lazily — on Build and on the first HasEdge/NumEdges
// after a mutation — instead of living in a hash map. Construction is the
// setup cost of every bench fixture and of POST /v1/reload, and the
// sorted-key representation makes the CSR fill a single counting pass
// with no per-node sort (see Build).
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

// Build produces the immutable CSR graph. The Builder may be reused
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
	return &Graph{offsets: deg, adj: adj, m: len(b.edges)}
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
