package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// paperGraph builds the 9-node example network of Fig. 7(a).
// Node IDs are paper labels minus one (U1 -> 0).
func paperGraph(t *testing.T) *Graph {
	t.Helper()
	edges := []Edge{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, // U1 to U2..U6
		{1, 2}, {1, 3}, {2, 3}, // clique among U2,U3,U4
		{3, 5},         // U4-U6
		{4, 5},         // U5-U6
		{6, 7}, {6, 8}, // U7-U8, U7-U9
		{1, 6}, // U2-U7 (bridges ego circle of U2)
	}
	return FromEdges(9, edges)
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge(0,1): %v", err)
	}
	if err := b.AddEdge(1, 0); err != nil { // duplicate, reversed
		t.Fatalf("AddEdge(1,0): %v", err)
	}
	if err := b.AddEdge(2, 2); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := b.AddEdge(0, 9); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	g := b.Build()
	if g.NumNodes() != 4 || g.NumEdges() != 1 {
		t.Fatalf("got n=%d m=%d, want n=4 m=1", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge {0,1} missing")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge {0,2}")
	}
	if g.Degree(3) != 0 {
		t.Fatalf("isolated node degree = %d", g.Degree(3))
	}
}

func TestEdgeKeyRoundTrip(t *testing.T) {
	f := func(u, v uint32) bool {
		if u == v {
			return true
		}
		e := Edge{u, v}.Canon()
		return EdgeFromKey(e.Key()) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeSumEqualsTwiceEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if u != v {
				_ = b.AddEdge(u, v)
			}
		}
		g := b.Build()
		sum := 0
		for u := 0; u < n; u++ {
			sum += g.Degree(NodeID(u))
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAdjacencySymmetryAndSorted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u != v {
				_ = b.AddEdge(u, v)
			}
		}
		g := b.Build()
		for u := 0; u < n; u++ {
			ns := g.Neighbors(NodeID(u))
			for i, v := range ns {
				if i > 0 && ns[i-1] >= v {
					return false // unsorted or duplicate
				}
				if !g.HasEdge(v, NodeID(u)) {
					return false // asymmetric
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := paperGraph(t)
	edges := g.Edges()
	if len(edges) != g.NumEdges() {
		t.Fatalf("Edges() returned %d, want %d", len(edges), g.NumEdges())
	}
	for _, e := range edges {
		if e.U >= e.V {
			t.Fatalf("non-canonical edge %v", e)
		}
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("edge %v not in graph", e)
		}
	}
}

func TestEgoNetworkPaperExample(t *testing.T) {
	g := paperGraph(t)
	ego := g.Ego(0) // U1's ego network: members U2..U6 (IDs 1..5)
	wantMembers := []NodeID{1, 2, 3, 4, 5}
	if len(ego.Members) != len(wantMembers) {
		t.Fatalf("members = %v, want %v", ego.Members, wantMembers)
	}
	for i, m := range wantMembers {
		if ego.Members[i] != m {
			t.Fatalf("members = %v, want %v", ego.Members, wantMembers)
		}
	}
	// Fig. 7(b): edges among friends are {U2,U3},{U2,U4},{U3,U4},{U4,U6},{U5,U6}.
	// In local IDs (global-1 ... local index of sorted members):
	// global 1,2,3,4,5 -> local 0,1,2,3,4.
	wantEdges := []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 4}, {3, 4}}
	if ego.G.NumEdges() != len(wantEdges) {
		t.Fatalf("ego edges = %v, want %v", ego.G.Edges(), wantEdges)
	}
	for _, e := range wantEdges {
		if !ego.G.HasEdge(e.U, e.V) {
			t.Fatalf("missing ego edge %v; got %v", e, ego.G.Edges())
		}
	}
}

func TestEgoExcludesEgoEdges(t *testing.T) {
	// Star graph: center 0 with leaves 1..5. Every ego net of the center
	// must be edgeless, and each leaf's ego net is the single center node.
	b := NewBuilder(6)
	for v := NodeID(1); v <= 5; v++ {
		_ = b.AddEdge(0, v)
	}
	g := b.Build()
	ego := g.Ego(0)
	if ego.G.NumEdges() != 0 {
		t.Fatalf("star center ego has %d edges, want 0", ego.G.NumEdges())
	}
	leaf := g.Ego(3)
	if len(leaf.Members) != 1 || leaf.Members[0] != 0 || leaf.G.NumEdges() != 0 {
		t.Fatalf("leaf ego = %+v, want single member 0 and no edges", leaf)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := paperGraph(t)
	sub, members := g.InducedSubgraph([]NodeID{6, 7, 8, 1})
	if len(members) != 4 {
		t.Fatalf("members = %v", members)
	}
	// Sorted members: 1,6,7,8 -> local 0,1,2,3.
	// Edges among them: {1,6},{6,7},{6,8} -> {0,1},{1,2},{1,3}.
	if sub.NumEdges() != 3 {
		t.Fatalf("induced edges = %d, want 3 (%v)", sub.NumEdges(), sub.Edges())
	}
	for _, e := range []Edge{{0, 1}, {1, 2}, {1, 3}} {
		if !sub.HasEdge(e.U, e.V) {
			t.Fatalf("missing induced edge %v", e)
		}
	}
	// Duplicate node IDs are ignored.
	sub2, members2 := g.InducedSubgraph([]NodeID{1, 1, 6})
	if len(members2) != 2 || sub2.NumEdges() != 1 {
		t.Fatalf("dup-handling failed: members=%v edges=%d", members2, sub2.NumEdges())
	}
}

func TestEgoMembersMatchNeighborProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u != v {
				_ = b.AddEdge(u, v)
			}
		}
		g := b.Build()
		u := NodeID(rng.Intn(n))
		ego := g.Ego(u)
		if len(ego.Members) != g.Degree(u) {
			return false
		}
		// Every ego edge must exist in G between the mapped globals, and
		// neither endpoint may be the ego.
		ok := true
		ego.G.ForEachEdge(func(a, bb NodeID) {
			ga, gb := ego.Members[a], ego.Members[bb]
			if ga == u || gb == u || !g.HasEdge(ga, gb) {
				ok = false
			}
		})
		// Count edges among neighbors directly; must match.
		cnt := 0
		ns := g.Neighbors(u)
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				if g.HasEdge(ns[i], ns[j]) {
					cnt++
				}
			}
		}
		return ok && cnt == ego.G.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEgoEqualsInducedSubgraph: the merge-walk extraction must yield, for
// every node, exactly the subgraph induced on its neighbors — same members
// (sorted, ego absent), same CSR rows.
func TestEgoEqualsInducedSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		b := NewBuilder(n)
		for i := rng.Intn(6 * n); i > 0; i-- {
			if u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)); u != v {
				_ = b.AddEdge(u, v)
			}
		}
		g := b.Build()
		for u := NodeID(0); int(u) < n; u++ {
			ego := g.Ego(u)
			want, members := g.InducedSubgraph(g.Neighbors(u))
			if !slices.Equal(ego.Members, members) || !slices.IsSorted(ego.Members) || slices.Contains(ego.Members, u) {
				t.Fatalf("trial %d ego %d: members %v, want %v without the ego", trial, u, ego.Members, members)
			}
			gotOff, gotAdj := flatten(ego.G)
			wantOff, wantAdj := flatten(want)
			if ego.G.NumEdges() != want.NumEdges() || !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) {
				t.Fatalf("trial %d ego %d: edges %v, want %v", trial, u, ego.G.Edges(), want.Edges())
			}
		}
	}
}
