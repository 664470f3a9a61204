package graph

import "fmt"

// NewFromCSR builds a Graph from flat compressed-sparse-row arrays: node
// u's sorted neighbor list is adj[offsets[u]:offsets[u+1]]. It is the decode
// entry point of the artifact store (internal/artifact, docs/FORMATS.md),
// which writes a graph row by row in exactly that layout. The arrays are
// validated structurally — monotone offsets, sorted strictly-increasing
// neighbor lists, in-range endpoints, no self-loops, and full symmetry (v
// in adj[u] iff u in adj[v]) — in one pass over adj, so a corrupted or
// hand-built input yields an error instead of a graph that panics later.
// adj is retained as the rows' storage, not copied; the caller must not
// modify it.
func NewFromCSR(offsets []int32, adj []NodeID) (*Graph, error) {
	if len(offsets) == 0 {
		return nil, fmt.Errorf("graph: csr: empty offsets")
	}
	n := len(offsets) - 1
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: csr: offsets[0] = %d, want 0", offsets[0])
	}
	if int(offsets[n]) != len(adj) {
		return nil, fmt.Errorf("graph: csr: offsets end at %d but adjacency has %d entries", offsets[n], len(adj))
	}
	if len(adj)%2 != 0 {
		return nil, fmt.Errorf("graph: csr: odd adjacency length %d (undirected graphs store both directions)", len(adj))
	}
	// Validate the whole offsets array before any slicing: an
	// intermediate offset beyond len(adj) would otherwise panic on the
	// row slice below even though the final offset checks out.
	for u := 0; u < n; u++ {
		if offsets[u] > offsets[u+1] {
			return nil, fmt.Errorf("graph: csr: offsets decrease at node %d", u)
		}
		if int(offsets[u+1]) > len(adj) {
			return nil, fmt.Errorf("graph: csr: offset %d of node %d exceeds adjacency length %d",
				offsets[u+1], u, len(adj))
		}
	}
	// Symmetry in the same pass: next[v] is row v's first entry no lower
	// row has claimed. Visiting u in ascending order, each v > u in row u
	// must find u there and claims it, and the entries of row u below u
	// must all have been claimed by the time u is visited. So row v's
	// entries below v are exactly the lower rows that list v.
	next := make([]int32, n)
	copy(next, offsets)
	for u := 0; u < n; u++ {
		row := adj[offsets[u]:offsets[u+1]]
		for i, v := range row {
			if int(v) >= n {
				return nil, fmt.Errorf("graph: csr: node %d has out-of-range neighbor %d (n=%d)", u, v, n)
			}
			if v == NodeID(u) {
				return nil, fmt.Errorf("graph: csr: self-loop on node %d", u)
			}
			if i > 0 && row[i-1] >= v {
				return nil, fmt.Errorf("graph: csr: neighbors of node %d not strictly increasing", u)
			}
			if v < NodeID(u) {
				if offsets[u]+int32(i) >= next[u] {
					return nil, fmt.Errorf("graph: csr: asymmetric arc %d->%d", u, v)
				}
				continue
			}
			at := next[v]
			if at < offsets[v+1] && adj[at] < NodeID(u) {
				return nil, fmt.Errorf("graph: csr: asymmetric arc %d->%d", v, adj[at])
			}
			if at == offsets[v+1] || adj[at] != NodeID(u) {
				return nil, fmt.Errorf("graph: csr: asymmetric arc %d->%d", u, v)
			}
			next[v]++
		}
	}
	g := new(Graph)
	g.cut(offsets, adj)
	return g, nil
}
