package community

import (
	"sort"

	"locec/internal/graph"
)

// This file keeps the whole-graph Girvan–Newman loop that shipped until the
// component-local kernel replaced it: every round re-runs Brandes from every
// node over the whole working adjacency, collects betweenness in a map and
// rebuilds a full Partition. It is the oracle the equivalence tests pin
// GirvanNewman and EdgeBetweenness against (==), moved here verbatim.

// girvanNewmanReference is GirvanNewman as it was before the rewrite.
func girvanNewmanReference(g *graph.Graph, opt Options) *Partition {
	n := g.NumNodes()
	if n == 0 {
		return &Partition{Assign: []int{}, Comms: [][]graph.NodeID{}}
	}
	// Mutable adjacency copy (sorted slices; removals preserve order).
	adj := make([][]graph.NodeID, n)
	for u := 0; u < n; u++ {
		ns := g.Neighbors(graph.NodeID(u))
		adj[u] = append([]graph.NodeID(nil), ns...)
	}
	remaining := g.NumEdges()

	best := partitionFromAdj(g, adj)
	bestQ := best.Q
	noImprove := 0

	bc := newBetweennessCalc(n)
	for remaining > 0 {
		eb := bc.edgeBetweenness(adj)
		// Find the maximum and remove every edge within a relative epsilon
		// of it (handles exact symmetric ties deterministically).
		maxB := 0.0
		for _, b := range eb {
			if b > maxB {
				maxB = b
			}
		}
		if maxB == 0 {
			break // only isolated vertices remain
		}
		thresh := maxB * (1 - 1e-9)
		var doomed []graph.Edge
		for k, b := range eb {
			if b >= thresh {
				doomed = append(doomed, graph.EdgeFromKey(k))
			}
		}
		sort.Slice(doomed, func(i, j int) bool {
			if doomed[i].U != doomed[j].U {
				return doomed[i].U < doomed[j].U
			}
			return doomed[i].V < doomed[j].V
		})
		for _, e := range doomed {
			removeEdge(adj, e.U, e.V)
			remaining--
		}
		p := partitionFromAdj(g, adj)
		if p.Q > bestQ+1e-12 {
			bestQ = p.Q
			best = p
			noImprove = 0
		} else {
			noImprove++
			if opt.Patience > 0 && noImprove >= opt.Patience {
				break
			}
		}
	}
	return best
}

func removeEdge(adj [][]graph.NodeID, u, v graph.NodeID) {
	adj[u] = removeFromSorted(adj[u], v)
	adj[v] = removeFromSorted(adj[v], u)
}

func removeFromSorted(s []graph.NodeID, v graph.NodeID) []graph.NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

// partitionFromAdj labels connected components of the working adjacency and
// scores them with the modularity of the ORIGINAL graph g.
func partitionFromAdj(g *graph.Graph, adj [][]graph.NodeID) *Partition {
	n := len(adj)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	count := 0
	stack := make([]graph.NodeID, 0, 64)
	for s := 0; s < n; s++ {
		if assign[s] != -1 {
			continue
		}
		assign[s] = count
		stack = append(stack[:0], graph.NodeID(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if assign[w] == -1 {
					assign[w] = count
					stack = append(stack, w)
				}
			}
		}
		count++
	}
	comms := make([][]graph.NodeID, count)
	for v := 0; v < n; v++ {
		c := assign[v]
		comms[c] = append(comms[c], graph.NodeID(v))
	}
	return &Partition{Assign: assign, Comms: comms, Q: Modularity(g, assign)}
}

// betweennessCalc holds reusable scratch buffers for Brandes' algorithm so
// repeated rounds on the same graph avoid reallocations.
type betweennessCalc struct {
	dist  []int
	sigma []float64
	delta []float64
	queue []graph.NodeID
	order []graph.NodeID
	preds [][]graph.NodeID
}

func newBetweennessCalc(n int) *betweennessCalc {
	return &betweennessCalc{
		dist:  make([]int, n),
		sigma: make([]float64, n),
		delta: make([]float64, n),
		queue: make([]graph.NodeID, 0, n),
		order: make([]graph.NodeID, 0, n),
		preds: make([][]graph.NodeID, n),
	}
}

// edgeBetweenness computes unweighted shortest-path edge betweenness for the
// working adjacency (Brandes 2001, edge variant). Keys are canonical edge
// keys; values are summed over all source nodes (each unordered pair is
// counted twice, which is irrelevant for ranking).
func (bc *betweennessCalc) edgeBetweenness(adj [][]graph.NodeID) map[uint64]float64 {
	n := len(adj)
	out := make(map[uint64]float64, n*2)
	for s := 0; s < n; s++ {
		if len(adj[s]) == 0 {
			continue
		}
		// Init per-source state.
		for i := 0; i < n; i++ {
			bc.dist[i] = -1
			bc.sigma[i] = 0
			bc.delta[i] = 0
			bc.preds[i] = bc.preds[i][:0]
		}
		bc.queue = bc.queue[:0]
		bc.order = bc.order[:0]
		bc.dist[s] = 0
		bc.sigma[s] = 1
		bc.queue = append(bc.queue, graph.NodeID(s))
		for qi := 0; qi < len(bc.queue); qi++ {
			v := bc.queue[qi]
			bc.order = append(bc.order, v)
			for _, w := range adj[v] {
				if bc.dist[w] < 0 {
					bc.dist[w] = bc.dist[v] + 1
					bc.queue = append(bc.queue, w)
				}
				if bc.dist[w] == bc.dist[v]+1 {
					bc.sigma[w] += bc.sigma[v]
					bc.preds[w] = append(bc.preds[w], v)
				}
			}
		}
		// Dependency accumulation in reverse BFS order.
		for i := len(bc.order) - 1; i >= 0; i-- {
			w := bc.order[i]
			for _, v := range bc.preds[w] {
				c := bc.sigma[v] / bc.sigma[w] * (1 + bc.delta[w])
				bc.delta[v] += c
				out[graph.Edge{U: v, V: w}.Key()] += c
			}
		}
	}
	return out
}

// The oracle and two graph fixtures, exported to bench_test.go, which lives
// in package community_test because it imports internal/bench.
var (
	GirvanNewmanReference = girvanNewmanReference
	DenseWechat           = denseWechat
	Planted               = planted
)
