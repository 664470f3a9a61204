package graph

import (
	"slices"
	"sort"
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

// Local returns the local ID of global node v inside the ego network, and
// whether v is a member.
func (e *EgoNetwork) Local(v NodeID) (NodeID, bool) {
	lo, hi := 0, len(e.Members)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.Members[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(e.Members) && e.Members[lo] == v {
		return NodeID(lo), true
	}
	return 0, false
}

// Ego extracts the ego network of u: the subgraph induced on u's neighbors,
// excluding u itself and its incident edges.
//
// Members and every adjacency list are sorted, so the extraction is a merge
// walk of each member's list against the members after it: its cost is
// O(sum of member degrees + members²), independent of graph size. u is
// not its own neighbor, so the walk drops it like any other non-member.
func (g *Graph) Ego(u NodeID) *EgoNetwork {
	members := g.Neighbors(u) // already sorted
	// forEachEdge visits the induced edges as (i, j) local pairs, i < j,
	// in ascending key order.
	forEachEdge := func(fn func(i, j int)) {
		for i, v := range members {
			ns := g.Neighbors(v)
			a, _ := slices.BinarySearch(ns, v) // only larger members: each undirected edge once
			for j := i + 1; j < len(members) && a < len(ns); {
				switch {
				case ns[a] < members[j]:
					a++
				case ns[a] > members[j]:
					j++
				default:
					fn(i, j)
					a++
					j++
				}
			}
		}
	}
	count := 0
	forEachEdge(func(int, int) { count++ })
	b := NewBuilder(len(members))
	b.edges = make([]uint64, 0, count)
	forEachEdge(func(i, j int) {
		// Error impossible: i < j < len(members) and no self-loops.
		_ = b.AddEdge(NodeID(i), NodeID(j))
	})
	memCopy := make([]NodeID, len(members))
	copy(memCopy, members)
	return &EgoNetwork{Ego: u, Members: memCopy, G: b.Build()}
}

// InducedSubgraph returns the subgraph induced on the given global nodes.
// The i-th returned mapping entry is the global ID of local node i.
// The nodes slice may be in any order; duplicates are ignored.
func (g *Graph) InducedSubgraph(nodes []NodeID) (*Graph, []NodeID) {
	seen := make(map[NodeID]struct{}, len(nodes))
	members := make([]NodeID, 0, len(nodes))
	for _, v := range nodes {
		if _, dup := seen[v]; !dup {
			seen[v] = struct{}{}
			members = append(members, v)
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	local := make(map[NodeID]NodeID, len(members))
	for i, v := range members {
		local[v] = NodeID(i)
	}
	b := NewBuilder(len(members))
	for i, v := range members {
		for _, w := range g.Neighbors(v) {
			j, ok := local[w]
			if !ok || NodeID(i) >= j {
				continue
			}
			_ = b.AddEdge(NodeID(i), j)
		}
	}
	return b.Build(), members
}
