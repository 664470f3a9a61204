package community_test

import (
	"math/rand"
	"testing"

	"locec/internal/bench"
	"locec/internal/community"
	"locec/internal/graph"
)

// Benchmarks run on bench.EgoGraph — the shared planted two-community
// fixture shaped like a typical ego network (the Phase I unit of work) —
// so every detector benchmark measures identical graphs.

func BenchmarkGirvanNewmanEgo16(b *testing.B) {
	g := bench.EgoGraph(16, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		community.GirvanNewman(g, community.Options{})
	}
}

func BenchmarkGirvanNewmanEgo32(b *testing.B) {
	g := bench.EgoGraph(32, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		community.GirvanNewman(g, community.Options{})
	}
}

// BenchmarkGirvanNewmanReferenceEgo32 is the whole-graph oracle on the graph
// of BenchmarkGirvanNewmanEgo32: the permanent before/after of the
// component-local kernel.
func BenchmarkGirvanNewmanReferenceEgo32(b *testing.B) {
	g := bench.EgoGraph(32, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		community.GirvanNewmanReference(g, community.Options{})
	}
}

func BenchmarkGirvanNewmanEgo64Patience(b *testing.B) {
	g := bench.EgoGraph(64, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		community.GirvanNewman(g, community.Options{Patience: 20})
	}
}

func BenchmarkEdgeBetweenness(b *testing.B) {
	g := bench.EgoGraph(32, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		community.EdgeBetweenness(g)
	}
}

func BenchmarkLabelPropagationEgo32(b *testing.B) {
	g := bench.EgoGraph(32, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		community.LabelPropagation(g, 20, int64(i))
	}
}

func BenchmarkLouvainEgo32(b *testing.B) {
	g := bench.EgoGraph(32, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		community.Louvain(g, int64(i))
	}
}

func BenchmarkLouvainEgo64(b *testing.B) {
	g := bench.EgoGraph(64, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		community.Louvain(g, int64(i))
	}
}

// BenchmarkGirvanNewmanDenseWechat divides the 300 ego networks of the
// equivalence tests' dense wechat graph — the shape batch_gn_dense_500
// divides — once per iteration.
func BenchmarkGirvanNewmanDenseWechat(b *testing.B) {
	w := community.DenseWechat(b)
	egos := make([]*graph.Graph, w.NumNodes())
	for u := range egos {
		egos[u] = w.Ego(graph.NodeID(u)).G
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range egos {
			community.GirvanNewman(g, community.Options{})
		}
	}
}

// BenchmarkGirvanNewmanPlanted150 is one 150-node graph of three planted
// blocks: bit rows of three words.
func BenchmarkGirvanNewmanPlanted150(b *testing.B) {
	g := community.Planted(rand.New(rand.NewSource(23)), 3, 50, 0.3, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		community.GirvanNewman(g, community.Options{})
	}
}
