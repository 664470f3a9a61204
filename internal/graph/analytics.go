package graph

// Analytics used for dataset characterization: triangle counts and
// clustering coefficients. All operate on the immutable graph.

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
