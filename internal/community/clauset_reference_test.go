package community

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"locec/internal/graph"
)

// The Clauset growth that shipped until clausetScratch.grow replaced it,
// moved here verbatim: it re-derives R = I/T from every member for every
// frontier candidate. It is the oracle the tests below pin the
// incremental grow against (==). Nothing outside tests calls it.

// growClauset implements Clauset's local-modularity community growth
// ("Finding local community structure in networks", Phys. Rev. E 72,
// 026132, 2005). Starting from C = {seed}, each step tentatively absorbs
// every frontier vertex and keeps the one that most improves the local
// modularity
//
//	R = I / T
//
// where B ⊆ C is the boundary (members with at least one neighbor outside
// C), T counts edges with at least one endpoint in B and I counts the
// subset of those whose both endpoints lie in C. Growth stops when no
// frontier vertex improves R — the boundary has stabilized. Ties break
// toward the smallest node ID, so the result is deterministic.
func growClauset(g *graph.Graph, seed graph.NodeID) []graph.NodeID {
	n := g.NumNodes()
	inC := make([]bool, n)
	inC[seed] = true
	members := []graph.NodeID{seed}
	queued := make([]bool, n) // frontier membership (stays set once absorbed)
	var frontier []graph.NodeID
	for _, v := range g.Neighbors(seed) {
		if !queued[v] {
			queued[v] = true
			frontier = append(frontier, v)
		}
	}
	trial := clausetTrial{isB: make([]bool, n)}
	bestR := trial.r(g, inC, members)
	for len(frontier) > 0 {
		slices.Sort(frontier)
		bestIdx := -1
		bestTrial := bestR
		for i, c := range frontier {
			inC[c] = true
			members = append(members, c)
			r := trial.r(g, inC, members)
			members = members[:len(members)-1]
			inC[c] = false
			if r > bestTrial+1e-12 {
				bestTrial, bestIdx = r, i
			}
		}
		if bestIdx < 0 {
			break
		}
		c := frontier[bestIdx]
		inC[c] = true
		members = append(members, c)
		bestR = bestTrial
		frontier = slices.Delete(frontier, bestIdx, bestIdx+1)
		for _, v := range g.Neighbors(c) {
			if !inC[v] && !queued[v] {
				queued[v] = true
				frontier = append(frontier, v)
			}
		}
	}
	return members
}

// clausetTrial is the scratch of one growth's R evaluations: the boundary
// marks (all false between calls) and the boundary list, reused by every
// trial instead of allocated per frontier candidate.
type clausetTrial struct {
	isB      []bool
	boundary []graph.NodeID
}

// r computes the local modularity R = I/T of the community marked by inC
// (whose members list is passed to avoid a full scan). A community with an
// empty boundary fully encloses its component; R is 1 by convention there,
// so growth never stalls one step short of absorbing a whole component.
func (t *clausetTrial) r(g *graph.Graph, inC []bool, members []graph.NodeID) float64 {
	isB, boundary := t.isB, t.boundary[:0]
	for _, u := range members {
		for _, v := range g.Neighbors(u) {
			if !inC[v] {
				isB[u] = true
				boundary = append(boundary, u)
				break
			}
		}
	}
	T, I := 0, 0
	for _, u := range boundary {
		for _, v := range g.Neighbors(u) {
			if isB[v] && v < u {
				continue // boundary-boundary edge already counted from v
			}
			T++
			if inC[v] {
				I++
			}
		}
	}
	for _, u := range boundary {
		isB[u] = false
	}
	t.boundary = boundary
	if T == 0 {
		return 1
	}
	return float64(I) / float64(T)
}

// localDivideReference is LocalDivide as it was before the scratch: each
// grow (clauset's from the reference) sorted, then filtered into a
// Partition.
func localDivideReference(g *graph.Graph, kind LocalKind) *Partition {
	n := g.NumNodes()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	var comms [][]graph.NodeID
	for s := 0; s < n; s++ {
		if assign[s] >= 0 {
			continue
		}
		var grown []graph.NodeID
		switch kind {
		case LocalLShell:
			grown = growLShell(g, graph.NodeID(s))
		case LocalLemon:
			grown = growLemon(g, graph.NodeID(s))
		default:
			grown = growClauset(g, graph.NodeID(s))
		}
		slices.Sort(grown)
		comm := grown[:0]
		for _, v := range grown {
			if assign[v] < 0 {
				comm = append(comm, v)
				assign[v] = len(comms)
			}
		}
		comms = append(comms, comm)
	}
	return &Partition{Assign: assign, Comms: comms, Q: Modularity(g, assign)}
}

// predicateGraph has n nodes and the edges {u,v}, u < v, that edge
// accepts.
func predicateGraph(n int, edge func(u, v int) bool) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if edge(u, v) {
				_ = b.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	return b.Build()
}

// clausetGraphs are the oracle's shapes: sparse random graphs (isolated
// nodes among them), G(n,p) up to complete, cliques (T = 0 once a whole
// clique is in, where R is 1), graphs of several components, and
// symmetric graphs whose candidates tie exactly (cycle, star, complete
// bipartite, grid).
func clausetGraphs() []*graph.Graph {
	rng := rand.New(rand.NewSource(29))
	var gs []*graph.Graph
	for range 60 {
		gs = append(gs, randomGraph(rng))
	}
	for _, p := range []float64{0.05, 0.2, 0.5, 0.9} {
		gs = append(gs, gnp(rng, 30, p))
	}
	for k := 1; k <= 8; k++ {
		gs = append(gs, gnp(rng, k, 1))
	}
	return append(gs,
		planted(rng, 3, 10, 0.8, 0.05),
		planted(rng, 4, 6, 0.6, 0), // four random components
		predicateGraph(18, func(u, v int) bool { return u/5 == v/5 && v < 15 }), // three K5, three isolated
		predicateGraph(12, func(u, v int) bool { return v == u+1 || u == 0 && v == 11 }),
		predicateGraph(9, func(u, _ int) bool { return u == 0 }),
		predicateGraph(7, func(u, v int) bool { return u < 3 && v >= 3 }),
		predicateGraph(20, func(u, v int) bool { return v == u+1 && v%5 != 0 || v == u+5 }),
	)
}

// clean reports whether every mark of the scratch, over its whole
// capacity, is false: the state a grow must leave.
func (s *clausetScratch) clean() bool {
	return !slices.Contains(s.inC[:cap(s.inC)], true) && !slices.Contains(s.queued[:cap(s.queued)], true)
}

// TestClausetMatchesReference: from every seed of every clausetGraphs
// graph, one scratch grows the reference's member list (==, absorption
// order included) and leaves its marks clean.
func TestClausetMatchesReference(t *testing.T) {
	var s clausetScratch
	for gi, g := range clausetGraphs() {
		for seed := range graph.NodeID(g.NumNodes()) {
			want := growClauset(g, seed)
			if got := s.grow(g, seed); !slices.Equal(got, want) {
				t.Fatalf("graph %d (n=%d m=%d) seed %d: grew %v, reference %v", gi, g.NumNodes(), g.NumEdges(), seed, got, want)
			}
			if !s.clean() {
				t.Fatalf("graph %d seed %d: marks left set", gi, seed)
			}
		}
	}
}

// TestClausetScratchHygiene: a scratch that grew every seed of a 40-node
// graph grows a 10-node graph's seeds exactly as a fresh scratch and the
// reference do, so nothing of the first graph leaks into the second.
func TestClausetScratchHygiene(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	big, small := planted(rng, 4, 10, 0.7, 0.1), gnp(rng, 10, 0.4)
	var shared clausetScratch
	for seed := range graph.NodeID(big.NumNodes()) {
		shared.grow(big, seed)
	}
	for seed := range graph.NodeID(small.NumNodes()) {
		got := slices.Clone(shared.grow(small, seed))
		if fresh := new(clausetScratch).grow(small, seed); !slices.Equal(got, fresh) {
			t.Fatalf("seed %d: shared scratch grew %v, fresh %v", seed, got, fresh)
		}
		if want := growClauset(small, seed); !slices.Equal(got, want) {
			t.Fatalf("seed %d: shared scratch grew %v, reference %v", seed, got, want)
		}
	}
}

// TestLocalDivideMatchesReference: for each seed-grown detector, one
// Scratch's LocalDivide returns the reference division's assignment and
// community count, and the package-level LocalDivide its whole Partition
// (Q to the bit).
func TestLocalDivideMatchesReference(t *testing.T) {
	var s Scratch
	for _, kind := range localKinds {
		for gi, g := range clausetGraphs() {
			want := localDivideReference(g, kind)
			assign, k := s.LocalDivide(g, kind)
			if !slices.Equal(assign, want.Assign) || k != len(want.Comms) {
				t.Fatalf("%v: graph %d: %d communities %v, reference %d %v", kind, gi, k, assign, len(want.Comms), want.Assign)
			}
			if got := LocalDivide(g, LocalOptions{Kind: kind}).Part; !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: graph %d: partition %+v, reference %+v", kind, gi, got, want)
			}
		}
	}
}

// FuzzClausetGrow: on a graph read from the input (node count, then edge
// end pairs), one scratch grows the reference's member list from every
// seed and leaves its marks clean.
func FuzzClausetGrow(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{6, 0, 1, 1, 2, 2, 0, 3, 4})
	f.Add([]byte{8, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 4, 5, 5, 6, 6, 7, 7, 4, 3, 4})
	f.Add([]byte{10, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 0})
	var s clausetScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%48
		b := graph.NewBuilder(n)
		for i := 1; i+1 < len(data); i += 2 {
			_ = b.AddEdge(graph.NodeID(int(data[i])%n), graph.NodeID(int(data[i+1])%n))
		}
		g := b.Build()
		for seed := range graph.NodeID(n) {
			want := growClauset(g, seed)
			if got := s.grow(g, seed); !slices.Equal(got, want) {
				t.Fatalf("n=%d m=%d seed %d: grew %v, reference %v", n, g.NumEdges(), seed, got, want)
			}
			if !s.clean() {
				t.Fatalf("seed %d: marks left set", seed)
			}
		}
	})
}
