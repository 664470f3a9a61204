package graph

import (
	"slices"
	"sync"
)

// EgoNetwork is the subgraph induced on a node's neighbors, with the ego
// node itself excluded (Section IV-A of the paper). Local node IDs are
// dense 0..len(Members)-1; Members maps local IDs back to global IDs.
type EgoNetwork struct {
	// Ego is the global ID of the ego node (not part of the subgraph).
	Ego NodeID
	// Members lists the global IDs of the ego's friends; Members[i] is the
	// global ID of local node i. Sorted ascending by global ID.
	Members []NodeID
	// G is the induced subgraph over Members (ego and its incident edges
	// excluded), using local IDs.
	G *Graph
}

// EgoScratch is the reusable storage of ego extraction: one scratch serves
// any number of extractions, one at a time. The zero value is ready to use.
type EgoScratch struct {
	pairs []NodeID // induced edges as consecutive local (i, j), i < j, ascending
	off   []int32  // flat row offsets of the extracted subgraph
	adj   []NodeID // its rows, concatenated; g's blocks view them
	g     Graph    // the extracted subgraph; the next extraction reuses its block table
}

// Extract is Ego without the copy-out: Members alias g's adjacency row of u
// and G is a view over arrays s owns, so both are valid only until the next
// Extract on s and must not be retained or modified.
//
// Members and every adjacency list are sorted, so the extraction is a merge
// walk of each member's list against the members after it: its cost is
// O(sum of member degrees + members²), independent of graph size. u is
// not its own neighbor, so the walk drops it like any other non-member.
// Pairs come out in (i, j) ascending order, so the counting-sort fill
// leaves every row sorted, as Builder.Build does.
func (s *EgoScratch) Extract(g *Graph, u NodeID) EgoNetwork {
	members := g.Neighbors(u) // already sorted
	n := len(members)
	// off[k+2] counts row k; the prefix sum makes off[k+1] row k's write
	// cursor, which the scatter leaves at row k's end: off[:n+1] are the
	// row offsets.
	off := slices.Grow(s.off[:0], n+2)[:n+2]
	clear(off)
	pairs := s.pairs[:0]
	for i, v := range members {
		ns := g.Neighbors(v)
		a, _ := slices.BinarySearch(ns, v) // only larger members: each undirected edge once
		for j := i + 1; j < n && a < len(ns); {
			switch {
			case ns[a] < members[j]:
				a++
			case ns[a] > members[j]:
				j++
			default:
				pairs = append(pairs, NodeID(i), NodeID(j))
				off[i+2]++
				off[j+2]++
				a++
				j++
			}
		}
	}
	for k := 2; k < len(off); k++ {
		off[k] += off[k-1]
	}
	adj := slices.Grow(s.adj[:0], len(pairs))[:len(pairs)]
	for p := 0; p < len(pairs); p += 2 {
		i, j := pairs[p], pairs[p+1]
		adj[off[i+1]] = j
		off[i+1]++
		adj[off[j+1]] = i
		off[j+1]++
	}
	s.pairs, s.off, s.adj = pairs, off[:n+1], adj
	s.g.cut(s.off, adj)
	return EgoNetwork{Ego: u, Members: members, G: &s.g}
}

// egoPool recycles the scratch behind Ego between calls.
var egoPool = sync.Pool{New: func() any { return new(EgoScratch) }}

// Ego extracts the ego network of u: the subgraph induced on u's neighbors,
// excluding u itself and its incident edges. The result is the caller's to
// keep: Extract on a pooled scratch, then a copy-out.
func (g *Graph) Ego(u NodeID) *EgoNetwork {
	s := egoPool.Get().(*EgoScratch)
	en := s.Extract(g, u)
	en.Members = slices.Clone(en.Members)
	en.G = new(Graph)
	en.G.cut(s.off, slices.Clone(s.adj))
	egoPool.Put(s)
	return &en
}
