package community

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"locec/internal/graph"
	"locec/internal/wechat"
)

// gnOptions are the three Options every equivalence case runs under.
var gnOptions = []Options{{}, {Patience: 3}, {Patience: 20}}

// samePartition reports the first difference between two partitions,
// compared exactly: Q with ==, Assign and every community element-wise.
func samePartition(got, want *Partition) error {
	if got.Q != want.Q {
		return fmt.Errorf("Q = %v, want %v", got.Q, want.Q)
	}
	if !slices.Equal(got.Assign, want.Assign) {
		return fmt.Errorf("Assign = %v, want %v", got.Assign, want.Assign)
	}
	if len(got.Comms) != len(want.Comms) {
		return fmt.Errorf("%d communities, want %d", len(got.Comms), len(want.Comms))
	}
	for i := range want.Comms {
		if !slices.Equal(got.Comms[i], want.Comms[i]) {
			return fmt.Errorf("Comms[%d] = %v, want %v", i, got.Comms[i], want.Comms[i])
		}
	}
	return nil
}

// gnp draws G(n,p).
func gnp(rng *rand.Rand, n int, p float64) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				_ = b.AddEdge(graph.NodeID(i), graph.NodeID(j))
			}
		}
	}
	return b.Build()
}

// planted draws k blocks of size nodes each, dense inside and sparse
// between, with node IDs shuffled so blocks are not contiguous ID ranges.
func planted(rng *rand.Rand, k, size int, pIn, pOut float64) *graph.Graph {
	n := k * size
	id := rng.Perm(n)
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := pOut
			if i/size == j/size {
				p = pIn
			}
			if rng.Float64() < p {
				_ = b.AddEdge(graph.NodeID(id[i]), graph.NodeID(id[j]))
			}
		}
	}
	return b.Build()
}

// denseWechat is a wechat network with every density knob at 1.5x: the
// shape batch_gn_dense_500 divides, at n=300.
func denseWechat(t testing.TB) *graph.Graph {
	cfg := wechat.DefaultConfig(300, 42)
	for _, p := range []*float64{
		&cfg.FamilyDensity, &cfg.WorkDensity, &cfg.PastWorkDensity,
		&cfg.SchoolDensity, &cfg.HobbyDensity, &cfg.WorkClosure,
		&cfg.PastWorkClosure, &cfg.SchoolClosure, &cfg.HobbyClosure,
	} {
		*p = min(*p*1.5, 1)
	}
	cfg.RandomEdgesPerUser *= 1.5
	net, err := wechat.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net.G
}

// equivalenceGraphs is the case list of the equivalence tests. Large and
// small graphs alternate, so a pooled scratch always arrives from a call on
// a different size and anything stale in it would be read.
func equivalenceGraphs(t testing.TB) []*graph.Graph {
	rng := rand.New(rand.NewSource(15))
	gs := []*graph.Graph{
		graph.FromEdges(0, nil),
		graph.FromEdges(1, nil),
		graph.FromEdges(2, nil),
		graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}),
		graph.FromEdges(6, nil),
		twoCliquesBridge(5),
		twoCliquesBridge(6),
		fig7Ego(),
		// Starts disconnected, with isolated nodes 3 and 7.
		graph.FromEdges(9, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 8}, {U: 4, V: 8}}),
	}
	for i := 0; i < 300; i++ {
		gs = append(gs, gnp(rng, 1+rng.Intn(40), 0.6*rng.Float64()))
		if i%10 == 0 {
			gs = append(gs, planted(rng, 2+rng.Intn(3), 6+rng.Intn(11), 0.5+0.4*rng.Float64(), 0.05*rng.Float64()))
		}
	}
	w := denseWechat(t)
	for u := 0; u < w.NumNodes(); u++ {
		gs = append(gs, w.Ego(graph.NodeID(u)).G)
	}
	return gs
}

// layered draws a graph whose levels have the given widths, with edges only
// between consecutive levels: each pair with probability p, and at least
// one into every node from the level before. Node IDs are shuffled, so a
// search's queue order is not ID order.
func layered(rng *rand.Rand, widths []int, p float64) *graph.Graph {
	n := 0
	for _, w := range widths {
		n += w
	}
	id := rng.Perm(n)
	b := graph.NewBuilder(n)
	lo := 0
	for l := 1; l < len(widths); l++ {
		mid := lo + widths[l-1]
		for j := mid; j < mid+widths[l]; j++ {
			sure := lo + rng.Intn(widths[l-1])
			for i := lo; i < mid; i++ {
				if i == sure || rng.Float64() < p {
					_ = b.AddEdge(graph.NodeID(id[i]), graph.NodeID(id[j]))
				}
			}
		}
		lo = mid
	}
	return b.Build()
}

// inexactPathCounts reports whether some source of g has a shortest-path
// count that float64 addition gets wrong, which takes counts above 2^53.
func inexactPathCounts(g *graph.Graph) bool {
	n := g.NumNodes()
	dist := make([]int, n)
	sigma := make([]float64, n)
	exact := make([]*big.Int, n)
	for src := 0; src < n; src++ {
		for v := range dist {
			dist[v], sigma[v], exact[v] = -1, 0, new(big.Int)
		}
		dist[src], sigma[src] = 0, 1
		exact[src].SetInt64(1)
		queue := []graph.NodeID{graph.NodeID(src)}
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for _, w := range g.Neighbors(v) {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					exact[w].Add(exact[w], exact[v])
				}
			}
		}
		for v, x := range exact {
			if f, _ := new(big.Float).SetInt(x).Float64(); f != sigma[v] {
				return true
			}
		}
	}
	return false
}

// wideGraphs is the second case list of the equivalence tests: components
// on both sides of every bit-row word boundary up to four words, a search
// 129 levels deep, and layered graphs whose path counts are inexact, so
// that the order each sigma sums its predecessors in shows in the result.
// A small graph follows every wide one through the pooled scratch.
func wideGraphs(t testing.TB) []*graph.Graph {
	rng := rand.New(rand.NewSource(23))
	var wide []*graph.Graph
	for _, n := range []int{63, 64, 65, 127, 128, 129, 200} {
		wide = append(wide, gnp(rng, n, 6/float64(n)))
	}
	wide = append(wide, planted(rng, 3, 50, 0.3, 0.01))
	path := make([]graph.Edge, 129)
	for i := range path {
		path[i] = graph.Edge{U: graph.NodeID(i), V: graph.NodeID(i + 1)}
	}
	wide = append(wide, graph.FromEdges(130, path))
	var deep []*graph.Graph
	for i := 0; i < 3; i++ {
		widths := make([]int, 40+rng.Intn(6))
		for l := range widths {
			widths[l] = 3 + rng.Intn(3) // 2 to 4 wide stays exact at this depth
		}
		deep = append(deep, layered(rng, widths, 0.7))
	}
	// Complete bipartite between consecutive levels: 3^39 paths end to end.
	deep = append(deep, layered(rng, slices.Repeat([]int{3}, 40), 1))
	for i, g := range deep {
		if !inexactPathCounts(g) {
			t.Fatalf("layered graph %d: every path count is exact", i)
		}
	}
	var gs []*graph.Graph
	for _, g := range append(wide, deep...) {
		gs = append(gs, g, gnp(rng, 2+rng.Intn(39), 0.5*rng.Float64()))
	}
	return gs
}

func TestGirvanNewmanMatchesReference(t *testing.T) {
	check := func(list string, gs []*graph.Graph, opts []Options) {
		for i, g := range gs {
			for _, opt := range opts {
				if err := samePartition(GirvanNewman(g, opt), girvanNewmanReference(g, opt)); err != nil {
					t.Fatalf("%s graph %d (n=%d m=%d) %+v: %v", list, i, g.NumNodes(), g.NumEdges(), opt, err)
				}
			}
		}
	}
	check("equivalence", equivalenceGraphs(t), gnOptions)
	check("wide", wideGraphs(t), []Options{{}, {Patience: 5}})
}

func TestEdgeBetweennessMatchesReference(t *testing.T) {
	for i, g := range append(equivalenceGraphs(t), wideGraphs(t)...) {
		n := g.NumNodes()
		adj := make([][]graph.NodeID, n)
		for u := range adj {
			adj[u] = g.Neighbors(graph.NodeID(u))
		}
		want := newBetweennessCalc(n).edgeBetweenness(adj)
		got := EdgeBetweenness(g)
		if len(got) != len(want) {
			t.Fatalf("graph %d: %d edges scored, want %d", i, len(got), len(want))
		}
		for k, b := range want {
			if got[k] != b {
				t.Fatalf("graph %d (n=%d m=%d) edge %v: betweenness %v, want %v", i, n, g.NumEdges(), graph.EdgeFromKey(k), got[k], b)
			}
		}
	}
}

// TestGirvanNewmanConcurrent shares the scratch pool between 8 goroutines
// working through differently sized graphs in different orders. The graphs
// of 65, 129 and 150 nodes start on multi-word rows and split into
// components of at most 64 nodes, so a scratch passes back and forth
// between brandes' two source loops.
func TestGirvanNewmanConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var gs []*graph.Graph
	for i := 0; i < 24; i++ {
		gs = append(gs, gnp(rng, 2+rng.Intn(38), 0.1+0.4*rng.Float64()))
	}
	gs = append(gs, planted(rng, 3, 12, 0.7, 0.04))
	gs = append(gs, gnp(rng, 65, 0.1), gnp(rng, 129, 0.04), planted(rng, 3, 50, 0.15, 0.01))
	serial := make([]*Partition, len(gs))
	for i, g := range gs {
		serial[i] = GirvanNewman(g, Options{})
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for j := range gs {
					i := (j*(2*w+1) + w) % len(gs)
					if err := samePartition(GirvanNewman(gs[i], Options{}), serial[i]); err != nil {
						t.Errorf("goroutine %d graph %d: %v", w, i, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestGirvanNewmanAllocatesOnlyItsResult: on a warm pool a run allocates
// its Partition, the Assign slice, the member slab and Comms, and nothing
// per round, on one-word rows (a dense-wechat ego of at most 64 nodes) and
// on multi-word ones (three planted blocks of 50).
func TestGirvanNewmanAllocatesOnlyItsResult(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	w := denseWechat(t)
	var ego *graph.Graph
	for u := 0; u < w.NumNodes(); u++ {
		if g := w.Ego(graph.NodeID(u)).G; g.NumNodes() <= 64 && (ego == nil || g.NumNodes() > ego.NumNodes()) {
			ego = g
		}
	}
	wide := planted(rand.New(rand.NewSource(23)), 3, 50, 0.3, 0.01)
	for _, g := range []*graph.Graph{ego, wide} {
		GirvanNewman(g, Options{})
		if a := testing.AllocsPerRun(10, func() { GirvanNewman(g, Options{}) }); a != 4 {
			t.Errorf("n=%d m=%d: %v allocations per run on a warm pool, want 4", g.NumNodes(), g.NumEdges(), a)
		}
	}
}
