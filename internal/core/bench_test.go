package core_test

import (
	"testing"

	"locec/internal/bench"
	"locec/internal/core"
	"locec/internal/graph"
)

// Benchmarks run on bench.WeChatDataset — the shared surveyed synthetic
// fixture. Fixtures are cached per process and must stay read-only.

func BenchmarkPhase1Division500(b *testing.B) {
	ds := bench.WeChatDataset(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Divide(ds, core.DivisionConfig{})
	}
}

// BenchmarkDivide runs Phase I once per iteration under each registered
// detector — the only home of the three local detectors' and Louvain's
// division cost and allocation count (ROADMAP 3(d)).
func BenchmarkDivide(b *testing.B) {
	ds := bench.WeChatDataset(100)
	for _, name := range core.DetectorNames() {
		kind, err := core.ParseDetector(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.Divide(ds, core.DivisionConfig{Detector: kind, Seed: 1})
			}
		})
	}
}

func BenchmarkPhase1SingleEgo(b *testing.B) {
	ds := bench.WeChatDataset(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Divide1(ds, graph.NodeID(i%ds.G.NumNodes()), core.DivisionConfig{})
	}
}

func BenchmarkFeatureMatrix(b *testing.B) {
	ds := bench.WeChatDataset(300)
	egos := core.Divide(ds, core.DivisionConfig{})
	var comm *core.LocalCommunity
	for _, er := range egos {
		for _, c := range er.Comms {
			if comm == nil || len(c.Members) > len(comm.Members) {
				comm = c
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.FeatureMatrix(ds, comm, 20)
	}
}

func BenchmarkPooledFeatures(b *testing.B) {
	ds := bench.WeChatDataset(300)
	egos := core.Divide(ds, core.DivisionConfig{})
	comm := egos[0].Comms[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.PooledFeatures(ds, comm)
	}
}

func BenchmarkFullPipelineXGB400(b *testing.B) {
	ds := bench.WeChatDataset(400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.NewPipeline(core.Config{Classifier: &core.XGBClassifier{Seed: 1}, Seed: 1})
		if _, err := p.Run(ds); err != nil {
			b.Fatal(err)
		}
	}
}
