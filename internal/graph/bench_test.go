package graph_test

import (
	"testing"

	"locec/internal/bench"
	"locec/internal/graph"
)

// Benchmarks run on the shared, cached fixtures from internal/bench.

func BenchmarkBuild10k(b *testing.B) {
	edges := bench.RandomEdges(10000, 80000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb := graph.NewBuilder(10000)
		for _, e := range edges {
			_ = bb.AddEdge(e[0], e[1])
		}
		bb.Build()
	}
}

func BenchmarkEgoExtraction(b *testing.B) {
	g := bench.RandomGraph(5000, 16, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Ego(graph.NodeID(i % g.NumNodes()))
	}
}

func BenchmarkHasEdge(b *testing.B) {
	g := bench.RandomGraph(5000, 16, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := graph.NodeID(i % g.NumNodes())
		v := graph.NodeID((i * 7) % g.NumNodes())
		g.HasEdge(u, v)
	}
}
