package community

import (
	"slices"

	"locec/internal/graph"
)

// clausetScratch is the working state of Clauset growth, reused by every
// grow: inC and queued (frontier membership, kept once absorbed) are
// indexed by node and all false between grows; out[u] counts member u's
// neighbours outside C; members lists C in absorption order and frontier
// the queued non-members, sorted.
type clausetScratch struct {
	inC, queued       []bool
	out               []int
	members, frontier []graph.NodeID
}

// grow implements Clauset's local-modularity community growth ("Finding
// local community structure in networks", Phys. Rev. E 72, 026132, 2005).
// Starting from C = {seed}, each step scores every frontier vertex as if
// absorbed and keeps the one that most improves the local modularity
//
//	R = I / T
//
// where B ⊆ C is the boundary (members with at least one neighbor outside
// C), T counts edges with at least one endpoint in B and I counts the
// subset of those whose both endpoints lie in C. Growth stops when no
// frontier vertex improves R — the boundary has stabilized. Ties break
// toward the smallest node ID, so the result is deterministic.
//
// I and T are integers kept up to date, and a candidate's are derived
// from them by Clauset's update rule (score), so a step costs the
// frontier's degrees and the boundary's, not a recount of C per
// candidate. It returns C in absorption order, a view valid until the
// next grow.
func (s *clausetScratch) grow(g *graph.Graph, seed graph.NodeID) []graph.NodeID {
	n := g.NumNodes()
	s.inC, s.queued, s.out = sized(s.inC, n), sized(s.queued, n), sized(s.out, n)
	inC, queued, out := s.inC, s.queued, s.out
	members, frontier := append(s.members[:0], seed), s.frontier[:0]
	inC[seed], out[seed] = true, g.Degree(seed)
	for _, v := range g.Neighbors(seed) {
		queued[v] = true
		frontier = append(frontier, v)
	}
	// cut counts the edges from C to the outside, so I = T − cut. A
	// community with an empty boundary (T = 0) fully encloses its
	// component; R is 1 by convention there, so growth never stalls one
	// step short of absorbing a whole component.
	T, cut := out[seed], out[seed]
	r := func(T, cut int) float64 {
		if T == 0 {
			return 1
		}
		return float64(T-cut) / float64(T)
	}
	bestR := r(T, cut)
	for len(frontier) > 0 {
		bestIdx, bestTrial := -1, bestR
		for i, c := range frontier {
			if rc := r(s.score(g, c, T, cut)); rc > bestTrial+1e-12 {
				bestTrial, bestIdx = rc, i
			}
		}
		if bestIdx < 0 {
			break
		}
		c := frontier[bestIdx]
		frontier = slices.Delete(frontier, bestIdx, bestIdx+1)
		T, cut = s.score(g, c, T, cut)
		in := 0
		for _, v := range g.Neighbors(c) {
			if inC[v] {
				out[v]--
				in++
			} else if !queued[v] {
				queued[v] = true
				i, _ := slices.BinarySearch(frontier, v)
				frontier = slices.Insert(frontier, i, v)
			}
		}
		inC[c], out[c] = true, g.Degree(c)-in
		members = append(members, c)
		bestR = bestTrial
	}
	for _, u := range members {
		inC[u], queued[u] = false, false
	}
	for _, u := range frontier {
		queued[u] = false
	}
	s.members, s.frontier = members, frontier
	return members
}

// score returns T and cut of C ∪ {c}, given C's. Absorbing c moves its
// edges into C out of the cut and its other edges into it and into T. T
// also loses every edge that then joins two interior vertices and touches
// S, the members whose only outside neighbour is c and which leave the
// boundary (with c, if c has no outside neighbour either). score marks S
// out = −1 among c's neighbours, counts those edges from S's adjacency and
// unmarks each vertex of S once its own edges are counted, so an S–S edge
// counts once.
func (s *clausetScratch) score(g *graph.Graph, c graph.NodeID, T, cut int) (int, int) {
	inC, out := s.inC, s.out
	nc := g.Neighbors(c)
	in, leaving := 0, 0
	for _, u := range nc {
		if inC[u] {
			in++
			if out[u] == 1 {
				out[u] = -1
				leaving++
			}
		}
	}
	lost := 0
	for i, left := 0, leaving; left > 0; i++ {
		if u := nc[i]; inC[u] && out[u] < 0 {
			for _, v := range g.Neighbors(u) {
				if inC[v] && out[v] <= 0 {
					lost++
				}
			}
			out[u] = 1
			left--
		}
	}
	if in == len(nc) {
		lost += leaving // c is interior too: its edges to S
	}
	outside := len(nc) - in
	return T + outside - lost, cut + outside - in
}
