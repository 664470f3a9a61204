package graph

import (
	"fmt"
	"slices"
	"testing"
)

// newFromCSRReference is NewFromCSR as it was before its symmetry check
// became one pass with a cursor per row: the structural checks, then one
// binary search (HasEdge) per arc for the reverse arc. FuzzNewFromCSR holds
// NewFromCSR to its accept/reject decision.
func newFromCSRReference(offsets []int32, adj []NodeID) (*Graph, error) {
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
	for u := 0; u < n; u++ {
		if offsets[u] > offsets[u+1] {
			return nil, fmt.Errorf("graph: csr: offsets decrease at node %d", u)
		}
		if int(offsets[u+1]) > len(adj) {
			return nil, fmt.Errorf("graph: csr: offset %d of node %d exceeds adjacency length %d",
				offsets[u+1], u, len(adj))
		}
	}
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
		}
	}
	g := new(Graph)
	g.cut(offsets, adj)
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(NodeID(u)) {
			if !g.HasEdge(v, NodeID(u)) {
				return nil, fmt.Errorf("graph: csr: asymmetric arc %d->%d", u, v)
			}
		}
	}
	return g, nil
}

// csrFromBytes turns fuzz input into CSR arrays. Byte 0 picks the mode:
// even bytes read node u's row as a 16-bit neighbour mask (sorted by
// construction) for up to 16 nodes, optionally symmetrized (bit 1) and
// then with one arc flipped by the last byte (bit 2), so near-symmetric
// graphs on both sides of the decision are common; odd bytes read the
// arrays raw, one byte per offset and per neighbour, to reach the
// structural errors too.
func csrFromBytes(data []byte) ([]int32, []NodeID) {
	if len(data) < 2 {
		return nil, nil
	}
	mode, data := data[0], data[1:]
	if mode&1 == 1 {
		n := min(len(data)/2, 16)
		offsets := make([]int32, n+1)
		for i := range offsets {
			offsets[i] = int32(int8(data[i]))
		}
		adj := make([]NodeID, 0, len(data))
		for _, b := range data[n+1:] {
			adj = append(adj, NodeID(b%(byte(n)+2)))
		}
		return offsets, adj
	}
	n := min(len(data)/2, 16)
	mask := make([]uint16, n)
	for u := range mask {
		mask[u] = uint16(data[2*u]) | uint16(data[2*u+1])<<8
	}
	if mode&2 != 0 {
		for u := range n {
			for v := range n {
				if mask[u]&(1<<v) != 0 {
					mask[v] |= 1 << u
				}
			}
		}
		for u := range n {
			mask[u] &^= 1 << u
		}
	}
	if mode&4 != 0 && n > 0 {
		b := data[len(data)-1]
		mask[int(b>>4)%n] ^= 1 << ((b & 15) % byte(n))
	}
	offsets := []int32{0}
	var adj []NodeID
	for u := range n {
		for v := range n {
			if mask[u]&(1<<v) != 0 {
				adj = append(adj, NodeID(v))
			}
		}
		offsets = append(offsets, int32(len(adj)))
	}
	return offsets, adj
}

// FuzzNewFromCSR: NewFromCSR accepts exactly the inputs the reference
// accepts, and an accepted graph has the same rows.
func FuzzNewFromCSR(f *testing.F) {
	f.Add([]byte{2, 0b110, 0, 0b101, 0, 0b011, 0})                   // symmetric triangle
	f.Add([]byte{6, 0b110, 0, 0b101, 0, 0b011, 0, 0x12})             // triangle, one arc flipped
	f.Add([]byte{0, 0b10, 0, 0, 0, 0b1, 0})                          // 0->1 and 2->0 only
	f.Add([]byte{2, 0xff, 0xff, 0x0f, 0xf0, 1, 2, 3, 4, 0x80, 0x01}) // dense, symmetrized
	f.Add([]byte{1, 0, 1, 2, 1, 0})                                  // raw arrays
	f.Fuzz(func(t *testing.T, data []byte) {
		offsets, adj := csrFromBytes(data)
		g, err := NewFromCSR(offsets, adj)
		ref, refErr := newFromCSRReference(offsets, adj)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("offsets %v adj %v: NewFromCSR error %v, reference error %v", offsets, adj, err, refErr)
		}
		if err != nil {
			return
		}
		for u := range g.NumNodes() {
			if got, want := g.Neighbors(NodeID(u)), ref.Neighbors(NodeID(u)); !slices.Equal(got, want) {
				t.Fatalf("row %d: %v, reference %v", u, got, want)
			}
		}
	})
}
