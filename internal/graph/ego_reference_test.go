package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The two-walk, Builder-backed extraction Ego used before the scratch kernel
// replaced it, kept verbatim as the oracle Extract and Ego are tested
// against. Nothing outside tests calls it.

// egoReference is (*Graph).Ego as it was before the rewrite.
func (g *Graph) egoReference(u NodeID) *EgoNetwork {
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

// The map-and-Builder induced subgraph: no non-test code called it, and it
// shares nothing with the merge walk, which makes it the independent oracle
// of TestEgoEqualsInducedSubgraph.

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

// sameEgo reports the first field in which got differs from want: ego,
// members, edge count, offsets or adjacency, element by element.
func sameEgo(t *testing.T, what string, got, want *EgoNetwork) {
	t.Helper()
	if got.Ego != want.Ego || !slices.Equal(got.Members, want.Members) {
		t.Fatalf("%s: ego %d members %v, want ego %d members %v", what, got.Ego, got.Members, want.Ego, want.Members)
	}
	gotOff, gotAdj := flatten(got.G)
	wantOff, wantAdj := flatten(want.G)
	if got.G.m != want.G.m || !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) {
		t.Fatalf("%s: ego %d graph m=%d offsets=%v adj=%v, want m=%d offsets=%v adj=%v", what, want.Ego,
			got.G.m, gotOff, gotAdj, want.G.m, wantOff, wantAdj)
	}
}

// egoFixtures are the graphs the extraction oracles run over: random graphs
// across the density range (node 0 left isolated in each), a star (hub and
// one-friend egos) and a clique.
func egoFixtures() []*Graph {
	rng := rand.New(rand.NewSource(21))
	var gs []*Graph
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(50)
		p := rng.Float64()
		b := NewBuilder(n)
		for u := 1; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					_ = b.AddEdge(NodeID(u), NodeID(v))
				}
			}
		}
		gs = append(gs, b.Build())
	}
	star, clique := NewBuilder(9), NewBuilder(9)
	for u := 0; u < 9; u++ {
		for v := u + 1; v < 9; v++ {
			if u == 0 {
				_ = star.AddEdge(NodeID(u), NodeID(v))
			}
			_ = clique.AddEdge(NodeID(u), NodeID(v))
		}
	}
	return append(gs, star.Build(), clique.Build())
}

// TestEgoMatchesReference: for every node of every fixture the exported Ego
// and Extract on one scratch shared by the whole test both equal the
// reference extraction — offsets, adjacency and members. The shared scratch
// goes from hubs to leaves to isolated nodes and back, so a row or a count
// surviving from a larger ego would show.
func TestEgoMatchesReference(t *testing.T) {
	var s EgoScratch
	for _, g := range egoFixtures() {
		for u := 0; u < g.NumNodes(); u++ {
			want := g.egoReference(NodeID(u))
			sameEgo(t, "Ego", g.Ego(NodeID(u)), want)
			view := s.Extract(g, NodeID(u))
			sameEgo(t, "Extract", &view, want)
		}
	}
}

// TestEgoResultIsOwned: what Ego returns shares nothing with the pooled
// scratch — a later extraction on the same goroutine leaves an earlier
// result as it was, and scribbling over the earlier result leaves the later
// one as it was.
func TestEgoResultIsOwned(t *testing.T) {
	gs := egoFixtures()
	g := gs[len(gs)-1] // the clique: every ego fills the scratch
	first, want1 := g.Ego(0), g.egoReference(0)
	second, want2 := g.Ego(1), g.egoReference(1)
	sameEgo(t, "first after second", first, want1)
	for i := range first.Members {
		first.Members[i] = ^NodeID(0)
	}
	for i := range first.G.blocks {
		b := &first.G.blocks[i]
		for r := range b.off {
			b.off[r] = -1
		}
		for j, full := 0, b.adj[:cap(b.adj)]; j < len(full); j++ {
			full[j] = ^NodeID(0)
		}
	}
	sameEgo(t, "second after first was overwritten", second, want2)
	sameEgo(t, "a third extraction", g.Ego(2), g.egoReference(2))
	if !slices.Equal(g.Neighbors(0), want1.Members) {
		t.Fatal("overwriting an Ego result reached the base graph's adjacency")
	}
}
