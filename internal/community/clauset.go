package community

import (
	"slices"

	"locec/internal/graph"
)

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
