package artifact_test

import (
	"bytes"
	"testing"

	"locec/internal/artifact"
	"locec/internal/bench"
	"locec/internal/core"
	"locec/internal/social"
)

// writeFixture is the write workload's fixture (n = 10 000, clauset +
// XGB), trained once per benchmark.
func writeFixture(b *testing.B) (*social.Dataset, *core.Result) {
	ds := bench.WeChatDataset(10_000)
	res, err := core.NewPipeline(core.Config{
		Division:   core.DivisionConfig{Detector: core.DetectorClauset, Seed: 1},
		Classifier: &core.XGBClassifier{Seed: 1},
		Seed:       1,
	}).Run(ds)
	if err != nil {
		b.Fatal(err)
	}
	return ds, res
}

// checkpoint is one WAL checkpoint's artifact of the fixture: Export, New,
// EmbedDataset and StampWAL.
func checkpoint(b *testing.B, ds *social.Dataset, res *core.Result) *artifact.Artifact {
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
	return art
}

// BenchmarkSave is one WAL checkpoint's work on the write workload's
// fixture, without the file: the checkpoint artifact and its Save into a
// discarding writer. B/op is what a checkpoint allocates; out_MB is the
// snapshot it writes.
func BenchmarkSave(b *testing.B) {
	ds, res := writeFixture(b)
	var out countingWriter
	b.ReportAllocs()
	for b.Loop() {
		out.n = 0
		if err := checkpoint(b, ds, res).Save(&out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(out.n)/1e6, "out_MB")
}

// BenchmarkLoad is recovery's decode of that checkpoint, already read:
// LoadBytes, then Graph, Export and Dataset. B/op is what a restart
// allocates beyond the file's own bytes.
func BenchmarkLoad(b *testing.B) {
	ds, res := writeFixture(b)
	var buf bytes.Buffer
	if err := checkpoint(b, ds, res).Save(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	for b.Loop() {
		art, err := artifact.LoadBytes(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := art.Graph(); err != nil {
			b.Fatal(err)
		}
		if _, err := art.Export(); err != nil {
			b.Fatal(err)
		}
		if _, err := art.Dataset(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data))/1e6, "in_MB")
}
