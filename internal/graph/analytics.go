package graph

import "math"

// Analytics used for dataset characterization and the structural-
// similarity baselines: neighborhood similarity metrics, triangle counts
// and clustering coefficients. All operate on the immutable graph.

// Jaccard returns |N(u) ∩ N(v)| / |N(u) ∪ N(v)|, the exact quantity
// ProbWP's min-hash signatures estimate. Returns 0 when both neighbor
// sets are empty.
func (g *Graph) Jaccard(u, v NodeID) float64 {
	inter := g.CommonNeighbors(u, v)
	union := g.Degree(u) + g.Degree(v) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// AdamicAdar returns the Adamic–Adar index of u and v: the sum over
// common neighbors w of 1/log(deg(w)). Common neighbors of degree 1
// cannot occur (they neighbor both u and v), so the logarithm is safe.
func (g *Graph) AdamicAdar(u, v NodeID) float64 {
	a, b := g.Neighbors(u), g.Neighbors(v)
	i, j := 0, 0
	score := 0.0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			d := g.Degree(a[i])
			if d > 1 {
				score += 1 / math.Log(float64(d))
			}
			i++
			j++
		}
	}
	return score
}

// Triangles returns the number of triangles through node u: pairs of u's
// neighbors that are themselves adjacent.
func (g *Graph) Triangles(u NodeID) int {
	ns := g.Neighbors(u)
	count := 0
	for i := 0; i < len(ns); i++ {
		for j := i + 1; j < len(ns); j++ {
			if g.HasEdge(ns[i], ns[j]) {
				count++
			}
		}
	}
	return count
}

// ClusteringCoefficient returns the local clustering coefficient of u:
// triangles(u) / C(deg(u), 2). Nodes of degree < 2 return 0.
func (g *Graph) ClusteringCoefficient(u NodeID) float64 {
	d := g.Degree(u)
	if d < 2 {
		return 0
	}
	possible := d * (d - 1) / 2
	return float64(g.Triangles(u)) / float64(possible)
}

// MeanClusteringCoefficient averages the local clustering coefficient
// over all nodes (degree-<2 nodes contribute 0, the usual convention).
func (g *Graph) MeanClusteringCoefficient() float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	sum := 0.0
	for u := 0; u < n; u++ {
		sum += g.ClusteringCoefficient(NodeID(u))
	}
	return sum / float64(n)
}
