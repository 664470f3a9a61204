package artifact_test

import (
	"bytes"
	"testing"

	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/gbdt"
	"locec/internal/testutil"
	"locec/internal/wechat"
)

// serializeAt runs the full pipeline at the given GOMAXPROCS — the width
// of Phase I, of the GBDT trainer, of the community Classify loop and of
// edge prediction — and serializes the result, normalizing wall-clock
// timings the same way TestSaveDeterministic does.
func serializeAt(t *testing.T, procs int, cfg core.Config) []byte {
	t.Helper()
	testutil.SetProcs(t, procs)
	net, err := wechat.Generate(wechat.DefaultConfig(80, 7))
	if err != nil {
		t.Fatal(err)
	}
	net.RunSurvey(0.5, 8)
	ds := net.Dataset
	res, err := core.NewPipeline(cfg).Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	res.Times = core.PhaseTimes{}
	ex, err := res.Export()
	if err != nil {
		t.Fatal(err)
	}
	art, err := artifact.New(ds.G, ex, 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := art.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSaveDeterministicParallelGBDT extends the cold-start byte-identity
// contract to every fan-out in the pipeline: a whole Pipeline.Run — Phase I
// (parallel.For, one node per claim), GBDT training, both Classify loops and
// predictEdges (one block per worker) — serializes to the same bytes at
// GOMAXPROCS 1, 2 and 8 and on a repeat at 8, so the width can never leak
// into a shipped snapshot. The CNN pipeline pins its training width
// (CNNClassifier.Workers — a CommCNN fit differs between worker counts);
// everything around the fit still runs at GOMAXPROCS.
func TestSaveDeterministicParallelGBDT(t *testing.T) {
	pipelines := []struct {
		name string
		cfg  func() core.Config // fresh classifier per run: Fit mutates it
	}{
		{"labelprop+xgb", func() core.Config {
			return core.Config{
				Division:   core.DivisionConfig{Detector: core.DetectorLabelProp, Seed: 1},
				Classifier: &core.XGBClassifier{Seed: 1, Config: gbdt.Config{Rounds: 12}},
				Seed:       1,
			}
		}},
		{"gn+cnn", func() core.Config {
			return core.Config{
				Division:   core.DivisionConfig{Detector: core.DetectorGirvanNewman, Seed: 1},
				Classifier: &core.CNNClassifier{K: 8, Epochs: 2, Workers: 2, Seed: 1},
				Seed:       1,
			}
		}},
	}
	for _, pl := range pipelines {
		t.Run(pl.name, func(t *testing.T) {
			first := serializeAt(t, 8, pl.cfg())
			if !bytes.Equal(first, serializeAt(t, 8, pl.cfg())) {
				t.Fatal("identical runs at GOMAXPROCS=8 produced different artifact bytes")
			}
			for _, procs := range []int{1, 2} {
				if !bytes.Equal(first, serializeAt(t, procs, pl.cfg())) {
					t.Fatalf("GOMAXPROCS=%d artifact differs from the GOMAXPROCS=8 artifact", procs)
				}
			}
		})
	}
}
