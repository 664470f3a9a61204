package community

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"locec/internal/graph"
)

var localKinds = []LocalKind{LocalClauset, LocalLShell, LocalLemon}

// plantedGraph builds a planted-partition graph: `blocks` groups of `size`
// nodes, intra-block edge probability pin, inter-block pout. Returns the
// graph and each node's planted block.
func plantedGraph(rng *rand.Rand, blocks, size int, pin, pout float64) (*graph.Graph, []int) {
	n := blocks * size
	truth := make([]int, n)
	for i := range truth {
		truth[i] = i / size
	}
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := pout
			if truth[u] == truth[v] {
				p = pin
			}
			if rng.Float64() < p {
				edges = append(edges, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v)})
			}
		}
	}
	return graph.FromEdges(n, edges), truth
}

// randomGraph builds an arbitrary sparse graph for invariant checks.
func randomGraph(rng *rand.Rand) *graph.Graph {
	n := 2 + rng.Intn(40)
	var edges []graph.Edge
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		e := (graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v)}).Canon()
		edges = append(edges, e)
	}
	slices.SortFunc(edges, func(a, b graph.Edge) int {
		switch {
		case a.Key() < b.Key():
			return -1
		case a.Key() > b.Key():
			return 1
		default:
			return 0
		}
	})
	edges = slices.Compact(edges)
	return graph.FromEdges(n, edges)
}

// connected reports whether members forms one connected subgraph of g
// containing seed.
func connected(g *graph.Graph, seed graph.NodeID, members []graph.NodeID) bool {
	in := map[graph.NodeID]bool{}
	for _, u := range members {
		in[u] = true
	}
	if !in[seed] {
		return false
	}
	seen := map[graph.NodeID]bool{seed: true}
	queue := []graph.NodeID{seed}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if in[v] && !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return len(seen) == len(members)
}

// TestGrowInvariants: for every detector, on arbitrary graphs, a grow (a)
// contains its seed, (b) is connected, (c) is sorted with no duplicates,
// and (d) scanned covers every member (the locality contract replay
// relies on: the grow read the adjacency of everything it returned).
func TestGrowInvariants(t *testing.T) {
	for _, kind := range localKinds {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 40; trial++ {
			g := randomGraph(rng)
			seed := graph.NodeID(rng.Intn(g.NumNodes()))
			gr := GrowLocal(g, seed, LocalOptions{Kind: kind})
			if !slices.Contains(gr.Members, seed) {
				t.Fatalf("%v: trial %d: seed %d not in community %v", kind, trial, seed, gr.Members)
			}
			if !slices.IsSorted(gr.Members) || len(slices.Compact(slices.Clone(gr.Members))) != len(gr.Members) {
				t.Fatalf("%v: trial %d: members not sorted/unique: %v", kind, trial, gr.Members)
			}
			if !connected(g, seed, gr.Members) {
				t.Fatalf("%v: trial %d: community not connected: %v", kind, trial, gr.Members)
			}
			scanned := map[graph.NodeID]bool{}
			for _, u := range gr.Scanned {
				scanned[u] = true
			}
			for _, u := range gr.Members {
				if !scanned[u] {
					t.Fatalf("%v: trial %d: member %d missing from scanned set %v", kind, trial, u, gr.Scanned)
				}
			}
		}
	}
}

// TestGrowDeterministic: identical inputs give identical grows and
// identical full divisions, regardless of call order (gates test-order
// dependence under -shuffle=on).
func TestGrowDeterministic(t *testing.T) {
	for _, kind := range localKinds {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 20; trial++ {
			g := randomGraph(rng)
			seed := graph.NodeID(rng.Intn(g.NumNodes()))
			a := GrowLocal(g, seed, LocalOptions{Kind: kind})
			b := GrowLocal(g, seed, LocalOptions{Kind: kind})
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%v: trial %d: grow not deterministic:\n%v\n%v", kind, trial, a, b)
			}
			da := LocalDivide(g, LocalOptions{Kind: kind})
			db := LocalDivide(g, LocalOptions{Kind: kind})
			if !reflect.DeepEqual(da, db) {
				t.Fatalf("%v: trial %d: division not deterministic", kind, trial)
			}
		}
	}
}

// TestLocalDividePartition: the division is a true partition — every node
// in exactly one community, assignments consistent with the member lists,
// members sorted, and communities in canonical smallest-member order.
func TestLocalDividePartition(t *testing.T) {
	for _, kind := range localKinds {
		rng := rand.New(rand.NewSource(13))
		for trial := 0; trial < 20; trial++ {
			g := randomGraph(rng)
			d := LocalDivide(g, LocalOptions{Kind: kind})
			p := d.Part
			if len(p.Assign) != g.NumNodes() || len(p.Comms) != len(d.Grows) {
				t.Fatalf("%v: shape mismatch", kind)
			}
			seen := make([]int, g.NumNodes())
			prevMin := graph.NodeID(0)
			for ci, comm := range p.Comms {
				if len(comm) == 0 {
					t.Fatalf("%v: empty community %d", kind, ci)
				}
				if !slices.IsSorted(comm) {
					t.Fatalf("%v: community %d not sorted: %v", kind, ci, comm)
				}
				if ci > 0 && comm[0] <= prevMin {
					t.Fatalf("%v: communities not in smallest-member order", kind)
				}
				prevMin = comm[0]
				if d.Grows[ci].Seed != comm[0] {
					t.Fatalf("%v: community %d seed %d != min member %d", kind, ci, d.Grows[ci].Seed, comm[0])
				}
				for _, u := range comm {
					seen[u]++
					if p.Assign[u] != ci {
						t.Fatalf("%v: assign[%d]=%d but member of %d", kind, u, p.Assign[u], ci)
					}
				}
			}
			for u, c := range seen {
				if c != 1 {
					t.Fatalf("%v: node %d in %d communities", kind, u, c)
				}
			}
		}
	}
}

// jaccard of two node sets.
func jaccard(a, b []graph.NodeID) float64 {
	in := map[graph.NodeID]bool{}
	for _, u := range a {
		in[u] = true
	}
	inter := 0
	for _, u := range b {
		if in[u] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// TestGrowPlantedAgreement: on planted-partition graphs every detector's
// grown community agrees with the seed's planted block above a pinned
// mean-Jaccard threshold. The thresholds are regression pins (measured on
// these seeds), not aspirations: a detector change that degrades recovery
// fails here.
func TestGrowPlantedAgreement(t *testing.T) {
	// Measured means on these seeds: clauset 0.963, lshell 0.851,
	// lemon 0.803.
	thresholds := map[LocalKind]float64{
		LocalClauset: 0.90,
		LocalLShell:  0.78,
		LocalLemon:   0.75,
	}
	for _, kind := range localKinds {
		rng := rand.New(rand.NewSource(17))
		sum, trials := 0.0, 0
		for trial := 0; trial < 30; trial++ {
			g, truth := plantedGraph(rng, 2, 12, 0.9, 0.04)
			seed := graph.NodeID(rng.Intn(g.NumNodes()))
			var block []graph.NodeID
			for u, b := range truth {
				if b == truth[seed] {
					block = append(block, graph.NodeID(u))
				}
			}
			gr := GrowLocal(g, seed, LocalOptions{Kind: kind})
			sum += jaccard(gr.Members, block)
			trials++
		}
		if mean := sum / float64(trials); mean < thresholds[kind] {
			t.Errorf("%v: mean planted-block Jaccard %.3f below pinned %.2f", kind, mean, thresholds[kind])
		}
	}
}

// toggleEdge returns a copy of g with edge {u,v} added or removed.
func toggleEdge(g *graph.Graph, u, v graph.NodeID) *graph.Graph {
	e := (graph.Edge{U: u, V: v}).Canon()
	edges := g.Edges()
	if g.HasEdge(u, v) {
		edges = slices.DeleteFunc(edges, func(x graph.Edge) bool { return x.Key() == e.Key() })
	} else {
		edges = append(edges, e)
	}
	return graph.FromEdges(g.NumNodes(), edges)
}

// TestReplayEquivalence is the seeded re-division exactness oracle at the
// community layer: after a random single-edge mutation, Replay with the
// mutation endpoints as the touched set must reproduce LocalDivide on the
// mutated graph bit-for-bit — including Q and the stored grows — while
// reusing at least some grows across the trial set (the early stop
// actually fires).
func TestReplayEquivalence(t *testing.T) {
	for _, kind := range localKinds {
		rng := rand.New(rand.NewSource(23))
		totalReused := 0
		for trial := 0; trial < 40; trial++ {
			g := randomGraph(rng)
			d := LocalDivide(g, LocalOptions{Kind: kind})
			u := graph.NodeID(rng.Intn(g.NumNodes()))
			v := graph.NodeID(rng.Intn(g.NumNodes()))
			if u == v {
				continue
			}
			g2 := toggleEdge(g, u, v)
			got, reused := d.Replay(g2, LocalOptions{Kind: kind}, []graph.NodeID{u, v})
			want := LocalDivide(g2, LocalOptions{Kind: kind})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: trial %d: replay diverged from full division after toggling {%d,%d}:\nreplay: %v\nfull:   %v",
					kind, trial, u, v, got.Part.Comms, want.Part.Comms)
			}
			totalReused += reused
		}
		if totalReused == 0 {
			t.Errorf("%v: replay never reused a grow across 40 trials — early stop is dead", kind)
		}
	}
}

// TestReplayReusesDistantGrows: a mutation confined to one clique must not
// re-grow communities seeded far away — "far" meaning outside every
// detector's scan radius (LEMON's diffusion ball spans lemonWalkSteps +
// lemonSubspaceDim − 1 ≈ 5 hops, so the cliques sit at the ends of a
// 12-node path).
func TestReplayReusesDistantGrows(t *testing.T) {
	// Clique A = 0..7, path 8–9–…–19 with 0–8, clique B = 20..27 with 19–20.
	var edges []graph.Edge
	for u := 0; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			edges = append(edges, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v)})
			edges = append(edges, graph.Edge{U: graph.NodeID(u + 20), V: graph.NodeID(v + 20)})
		}
	}
	edges = append(edges, graph.Edge{U: 0, V: 8})
	for u := 8; u < 19; u++ {
		edges = append(edges, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(u + 1)})
	}
	edges = append(edges, graph.Edge{U: 19, V: 20})
	g := graph.FromEdges(28, edges)
	for _, kind := range localKinds {
		d := LocalDivide(g, LocalOptions{Kind: kind})
		// Remove an edge deep inside clique B, away from the path mouth.
		g2 := toggleEdge(g, 25, 26)
		got, reused := d.Replay(g2, LocalOptions{Kind: kind}, []graph.NodeID{25, 26})
		want := LocalDivide(g2, LocalOptions{Kind: kind})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: replay diverged", kind)
		}
		if reused == 0 {
			t.Errorf("%v: mutation in clique B forced re-growing clique A's community", kind)
		}
	}
}
