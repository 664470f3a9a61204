package core

import (
	"bytes"
	"strings"
	"testing"

	"locec/internal/social"
	"locec/internal/wechat"
)

// exportRun builds a small trained pipeline for export tests.
func exportRun(t *testing.T, cl CommunityClassifier) (*social.Dataset, *Pipeline, *Result) {
	t.Helper()
	net, err := wechat.Generate(wechat.DefaultConfig(70, 3))
	if err != nil {
		t.Fatal(err)
	}
	net.RunSurvey(0.5, 4)
	p := NewPipeline(Config{
		Division:   DivisionConfig{Detector: DetectorLabelProp, Seed: 1},
		Classifier: cl,
		Seed:       1,
	})
	res, err := p.Run(net.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	return net.Dataset, p, res
}

func TestExportRoundTripWithoutSerialization(t *testing.T) {
	_, _, res := exportRun(t, &XGBClassifier{Seed: 1})
	ex, err := res.Export()
	if err != nil {
		t.Fatal(err)
	}
	if ex.Edges != res.Edges {
		t.Fatal("the export copied the store instead of sharing it")
	}
	res2, err := NewPipeline(Config{Seed: 1}).RunFromArtifact(ex)
	if err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, "imported", res2.Edges, res.Edges)
}

func TestExportRequiresPredictions(t *testing.T) {
	res := &Result{}
	if _, err := res.Export(); err == nil {
		t.Fatal("expected error exporting an empty result")
	}
}

func TestRunFromArtifactRejectsCorruptExport(t *testing.T) {
	_, _, res := exportRun(t, &XGBClassifier{Seed: 1})
	p := NewPipeline(Config{Seed: 1})

	ex, err := res.Export()
	if err != nil {
		t.Fatal(err)
	}
	ex.Edges = nil
	if _, err := p.RunFromArtifact(ex); err == nil {
		t.Fatal("expected error for a missing prediction store")
	}

	ex, _ = res.Export()
	if ex.Edges, err = NewEdgeStore([]uint64{1, 2}, []social.Label{0, 0}, []float64{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunFromArtifact(ex); err == nil || !strings.Contains(err.Error(), "1 classes") {
		t.Fatalf("error %v, want a one-class store refused", err)
	}

	ex, _ = res.Export()
	ex.Egos = append([]*EgoResult{ex.Egos[1]}, ex.Egos[1:]...)
	if _, err := p.RunFromArtifact(ex); err == nil || !strings.Contains(err.Error(), "belongs to node") {
		t.Fatalf("error %v, want an out-of-order ego refused", err)
	}

	ex, _ = res.Export()
	ex.ClassifierName = "LoCEC-Quantum"
	if _, err := p.RunFromArtifact(ex); err == nil || !strings.Contains(err.Error(), "unknown classifier") {
		t.Fatalf("error %v, want unknown classifier", err)
	}

	if _, err := p.RunFromArtifact(nil); err == nil {
		t.Fatal("expected error for nil export")
	}
}

func TestSaveModelUnfitted(t *testing.T) {
	var buf bytes.Buffer
	if err := (&CNNClassifier{}).SaveModel(&buf); err == nil {
		t.Fatal("expected error saving an unfitted CNN")
	}
	if err := (&XGBClassifier{}).SaveModel(&buf); err == nil {
		t.Fatal("expected error saving an unfitted XGB")
	}
}

// TestCNNModelRoundTrip pins that a CommCNN model survives SaveModel /
// LoadModel with identical inference behavior.
func TestCNNModelRoundTrip(t *testing.T) {
	ds, _, res := exportRun(t, &CNNClassifier{K: 8, Epochs: 2, Seed: 1})
	var buf bytes.Buffer
	if err := res.Classifier.(*CNNClassifier).SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := &CNNClassifier{}
	if err := loaded.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	if loaded.K != 8 {
		t.Fatalf("loaded K = %d, want 8", loaded.K)
	}
	shells := make([]*LocalCommunity, len(res.Communities))
	for i, c := range res.Communities {
		shells[i] = &LocalCommunity{Ego: c.Ego, Members: c.Members, Tightness: c.Tightness}
	}
	loaded.Classify(ds, shells)
	for i, c := range res.Communities {
		for j := range c.Probs {
			if shells[i].Probs[j] != c.Probs[j] {
				t.Fatalf("community %d class %d: %v, want %v", i, j, shells[i].Probs[j], c.Probs[j])
			}
		}
	}
}

func TestCNNLoadModelRejectsGarbage(t *testing.T) {
	if err := (&CNNClassifier{}).LoadModel(strings.NewReader("{\"k\":-3}")); err == nil {
		t.Fatal("expected error for invalid architecture")
	}
	if err := (&CNNClassifier{}).LoadModel(strings.NewReader("not json")); err == nil {
		t.Fatal("expected error for non-JSON input")
	}
}
