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
// contains its seed, (b) is connected and (c) is sorted with no duplicates.
func TestGrowInvariants(t *testing.T) {
	for _, kind := range localKinds {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 40; trial++ {
			g := randomGraph(rng)
			seed := graph.NodeID(rng.Intn(g.NumNodes()))
			members := growLocal(g, seed, kind)
			if !slices.Contains(members, seed) {
				t.Fatalf("%v: trial %d: seed %d not in community %v", kind, trial, seed, members)
			}
			if !slices.IsSorted(members) || len(slices.Compact(slices.Clone(members))) != len(members) {
				t.Fatalf("%v: trial %d: members not sorted/unique: %v", kind, trial, members)
			}
			if !connected(g, seed, members) {
				t.Fatalf("%v: trial %d: community not connected: %v", kind, trial, members)
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
			a := growLocal(g, seed, kind)
			b := growLocal(g, seed, kind)
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
			if len(p.Assign) != g.NumNodes() {
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
			sum += jaccard(growLocal(g, seed, kind), block)
			trials++
		}
		if mean := sum / float64(trials); mean < thresholds[kind] {
			t.Errorf("%v: mean planted-block Jaccard %.3f below pinned %.2f", kind, mean, thresholds[kind])
		}
	}
}
