package artifact_test

import (
	"testing"

	"locec/internal/artifact"
	"locec/internal/bench"
	"locec/internal/core"
)

// BenchmarkSave is one WAL checkpoint's work on the write workload's
// fixture (n = 10 000, clauset + XGB, dataset embedded), without the file:
// Export, New, EmbedDataset, StampWAL and Save into a discarding writer.
// B/op is what a checkpoint allocates; out_MB is the snapshot it writes.
func BenchmarkSave(b *testing.B) {
	ds := bench.WeChatDataset(10_000)
	res, err := core.NewPipeline(core.Config{
		Division:   core.DivisionConfig{Detector: core.DetectorClauset, Seed: 1},
		Classifier: &core.XGBClassifier{Seed: 1},
		Seed:       1,
	}).Run(ds)
	if err != nil {
		b.Fatal(err)
	}
	var out countingWriter
	b.ReportAllocs()
	for b.Loop() {
		ex, err := res.Export()
		if err != nil {
			b.Fatal(err)
		}
		art, err := artifact.New(ds.G, ex, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := art.EmbedDataset(ds); err != nil {
			b.Fatal(err)
		}
		art.StampWAL(1, 1)
		out.n = 0
		if err := art.Save(&out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(out.n)/1e6, "out_MB")
}
