package community

import "locec/internal/graph"

// Louvain detects communities by greedy modularity optimization (Blondel
// et al. 2008): repeated local-move passes followed by graph aggregation.
// It is far faster than Girvan–Newman on large ego networks and serves as
// the third Phase I ablation detector (the paper ships Girvan–Newman).
//
// The implementation is single-threaded and deterministic: node visit
// order is shuffled once per pass from the seed, and ties break toward the
// smallest community index.
func Louvain(g *graph.Graph, seed int64) *Partition {
	return new(Scratch).Louvain(g, seed)
}

// Louvain is the package-level Louvain drawing its shuffles from the
// scratch's generator instead of a new one.
func (s *Scratch) Louvain(g *graph.Graph, seed int64) *Partition {
	n := g.NumNodes()
	if n == 0 {
		return &Partition{Assign: []int{}, Comms: [][]graph.NodeID{}}
	}
	// Working multigraph: adjacency with weights, plus self-loop weights
	// accumulated during aggregation.
	type wedge struct {
		to graph.NodeID
		w  float64
	}
	adj := make([][]wedge, n)
	selfW := make([]float64, n)
	g.ForEachEdge(func(u, v graph.NodeID) {
		adj[u] = append(adj[u], wedge{v, 1})
		adj[v] = append(adj[v], wedge{u, 1})
	})
	m2 := 2.0 * float64(g.NumEdges()) // total weight ×2
	if m2 == 0 {
		// Edgeless: every node its own community.
		assign := make([]int, n)
		comms := make([][]graph.NodeID, n)
		for i := range assign {
			assign[i] = i
			comms[i] = []graph.NodeID{graph.NodeID(i)}
		}
		return &Partition{Assign: assign, Comms: comms}
	}

	// membership[v] on the CURRENT level; levelMap maps current-level
	// super-nodes back to original nodes.
	members := make([][]graph.NodeID, n)
	for i := range members {
		members[i] = []graph.NodeID{graph.NodeID(i)}
	}
	rng := s.seeded(seed)

	for level := 0; level < 16; level++ {
		cur := len(adj)
		comm := make([]int, cur)
		commTot := make([]float64, cur) // total degree weight per community
		deg := make([]float64, cur)
		for v := 0; v < cur; v++ {
			comm[v] = v
			for _, e := range adj[v] {
				deg[v] += e.w
			}
			deg[v] += 2 * selfW[v]
			commTot[v] = deg[v]
		}
		order := rng.Perm(cur)
		improved := false
		for pass := 0; pass < 8; pass++ {
			moved := false
			for _, v := range order {
				// Weight from v to each neighboring community.
				wTo := map[int]float64{}
				for _, e := range adj[v] {
					wTo[comm[e.to]] += e.w
				}
				cv := comm[v]
				commTot[cv] -= deg[v]
				bestC, bestGain := cv, 0.0
				for c, w := range wTo {
					// ΔQ of moving v into c (standard local-move gain).
					gain := w - commTot[c]*deg[v]/m2
					if gain > bestGain+1e-12 || (gain > bestGain-1e-12 && c < bestC && gain > 0) {
						bestGain = gain
						bestC = c
					}
				}
				// Compare against staying.
				stay := wTo[cv] - commTot[cv]*deg[v]/m2
				if bestC != cv && bestGain > stay+1e-12 {
					comm[v] = bestC
					moved = true
					improved = true
				}
				commTot[comm[v]] += deg[v]
			}
			if !moved {
				break
			}
		}
		if !improved {
			break
		}
		// Renumber communities densely.
		remap := map[int]int{}
		for _, c := range comm {
			if _, ok := remap[c]; !ok {
				remap[c] = len(remap)
			}
		}
		nc := len(remap)
		// Aggregate members.
		newMembers := make([][]graph.NodeID, nc)
		for v := 0; v < cur; v++ {
			c := remap[comm[v]]
			newMembers[c] = append(newMembers[c], members[v]...)
		}
		// Aggregate graph.
		newSelf := make([]float64, nc)
		agg := make([]map[graph.NodeID]float64, nc)
		for i := range agg {
			agg[i] = map[graph.NodeID]float64{}
		}
		for v := 0; v < cur; v++ {
			cv := remap[comm[v]]
			newSelf[cv] += selfW[v]
			for _, e := range adj[v] {
				cu := remap[comm[e.to]]
				if cu == cv {
					newSelf[cv] += e.w / 2 // each intra edge seen twice
				} else {
					agg[cv][graph.NodeID(cu)] += e.w
				}
			}
		}
		newAdj := make([][]wedge, nc)
		for c := 0; c < nc; c++ {
			for to, w := range agg[c] {
				newAdj[c] = append(newAdj[c], wedge{to, w})
			}
		}
		adj = newAdj
		selfW = newSelf
		members = newMembers
		if nc == cur {
			break
		}
	}

	assign := make([]int, n)
	comms := make([][]graph.NodeID, len(members))
	for c, ms := range members {
		sorted := append([]graph.NodeID(nil), ms...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		comms[c] = sorted
		for _, v := range sorted {
			assign[v] = c
		}
	}
	return &Partition{Assign: assign, Comms: comms, Q: Modularity(g, assign)}
}
