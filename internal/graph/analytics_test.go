package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrianglesAndClustering(t *testing.T) {
	// K4: every node has 3 triangles through it, coefficient 1.
	b := NewBuilder(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			_ = b.AddEdge(NodeID(i), NodeID(j))
		}
	}
	g := b.Build()
	for u := NodeID(0); u < 4; u++ {
		if g.Triangles(u) != 3 {
			t.Fatalf("K4 triangles(%d) = %d", u, g.Triangles(u))
		}
		if g.ClusteringCoefficient(u) != 1 {
			t.Fatalf("K4 clustering(%d) = %v", u, g.ClusteringCoefficient(u))
		}
	}
	if g.MeanClusteringCoefficient() != 1 {
		t.Fatal("K4 mean clustering != 1")
	}
	// Star: no triangles, coefficient 0 everywhere.
	star := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	if star.Triangles(0) != 0 || star.ClusteringCoefficient(0) != 0 {
		t.Fatal("star should have no triangles")
	}
	if star.ClusteringCoefficient(1) != 0 {
		t.Fatal("degree-1 node coefficient should be 0")
	}
}

func TestClusteringBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(25)
		b := NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u != v {
				_ = b.AddEdge(u, v)
			}
		}
		g := b.Build()
		for u := 0; u < n; u++ {
			c := g.ClusteringCoefficient(NodeID(u))
			if c < 0 || c > 1 {
				return false
			}
		}
		m := g.MeanClusteringCoefficient()
		return m >= 0 && m <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
