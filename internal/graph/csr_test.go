package graph

import (
	"strings"
	"testing"
)

// flatten returns g's rows as flat CSR arrays, the layout NewFromCSR takes
// and the artifact store writes.
func flatten(g *Graph) (offsets []int32, adj []NodeID) {
	offsets = make([]int32, 1, g.NumNodes()+1)
	for u := range g.NumNodes() {
		adj = append(adj, g.Neighbors(NodeID(u))...)
		offsets = append(offsets, int32(len(adj)))
	}
	return offsets, adj
}

func TestCSRRoundTrip(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}})
	offsets, adj := flatten(g)
	back, err := NewFromCSR(offsets, adj)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d nodes / %d edges, want %d / %d",
			back.NumNodes(), back.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	g.ForEachEdge(func(u, v NodeID) {
		if !back.HasEdge(u, v) {
			t.Fatalf("round trip lost edge {%d,%d}", u, v)
		}
	})
	if back.HasEdge(0, 4) {
		t.Fatal("round trip invented edge {0,4}")
	}
}

func TestNewFromCSRRejectsInvalid(t *testing.T) {
	cases := []struct {
		name    string
		offsets []int32
		adj     []NodeID
		want    string
	}{
		{"empty offsets", nil, nil, "empty offsets"},
		{"bad start", []int32{1, 1}, nil, "offsets[0]"},
		{"length mismatch", []int32{0, 2}, []NodeID{1}, "adjacency has"},
		{"odd adjacency", []int32{0, 1}, []NodeID{0}, "odd adjacency"},
		{"decreasing offsets", []int32{0, 1, 0, 2}, []NodeID{1, 0}, "decrease"},
		{"out of range", []int32{0, 1, 2}, []NodeID{5, 0}, "out-of-range"},
		{"self loop", []int32{0, 1, 2}, []NodeID{0, 0}, "self-loop"},
		{"unsorted row", []int32{0, 2, 3, 4}, []NodeID{2, 1, 0, 0}, "strictly increasing"},
		{"asymmetric", []int32{0, 1, 2}, []NodeID{1, 0}, ""}, // valid: 0-1 both ways
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewFromCSR(tc.offsets, tc.adj)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
	// True asymmetry: arc 0->1 without 1->0.
	if _, err := NewFromCSR([]int32{0, 1, 1, 2}, []NodeID{1, 0}); err == nil ||
		!strings.Contains(err.Error(), "asymmetric") {
		t.Fatalf("error %v, want asymmetric", err)
	}
	// Intermediate offset overshooting the adjacency array must error,
	// not panic on the row slice (the final offset alone checks out).
	if _, err := NewFromCSR([]int32{0, 10, 4}, []NodeID{1, 0, 1, 0}); err == nil ||
		!strings.Contains(err.Error(), "exceeds adjacency length") {
		t.Fatalf("error %v, want exceeds adjacency length", err)
	}
}
