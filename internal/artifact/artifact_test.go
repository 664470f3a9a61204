package artifact_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/social"
	"locec/internal/testutil"
	"locec/internal/wechat"
)

// trainedRun builds a small dataset and a completed pipeline run.
func trainedRun(t testing.TB, variant string) (*social.Dataset, *core.Result) {
	t.Helper()
	_, ds, res := trainedPipeline(t, variant)
	return ds, res
}

// trainedPipeline is trainedRun plus the pipeline that produced the run,
// for tests that go on to mutate it.
func trainedPipeline(t testing.TB, variant string) (*core.Pipeline, *social.Dataset, *core.Result) {
	t.Helper()
	net, err := wechat.Generate(wechat.DefaultConfig(80, 7))
	if err != nil {
		t.Fatal(err)
	}
	net.RunSurvey(0.5, 8)
	ds := net.Dataset
	cfg := core.Config{
		Division: core.DivisionConfig{Detector: core.DetectorLabelProp, Seed: 1},
		Seed:     1,
	}
	if variant == "cnn" {
		cfg.Classifier = &core.CNNClassifier{K: 8, Epochs: 2, Seed: 1}
	} else {
		cfg.Classifier = &core.XGBClassifier{Seed: 1}
	}
	p := core.NewPipeline(cfg)
	res, err := p.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	return p, ds, res
}

// saved returns the serialized artifact bytes for a trained run.
func saved(t testing.TB, variant string) (*social.Dataset, *core.Result, []byte) {
	t.Helper()
	ds, res := trainedRun(t, variant)
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
	return ds, res, buf.Bytes()
}

func TestRoundTripBitIdentical(t *testing.T) {
	for _, variant := range []string{"xgb", "cnn"} {
		t.Run(variant, func(t *testing.T) {
			ds, res, data := saved(t, variant)
			art, err := artifact.Load(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			meta := art.Meta()
			if meta.Nodes != ds.G.NumNodes() || meta.Edges != ds.G.NumEdges() {
				t.Fatalf("meta says %d nodes / %d edges, dataset has %d / %d",
					meta.Nodes, meta.Edges, ds.G.NumNodes(), ds.G.NumEdges())
			}
			if meta.Classifier != res.ClassifierName {
				t.Fatalf("meta classifier %q, want %q", meta.Classifier, res.ClassifierName)
			}
			g, err := art.Graph()
			if err != nil {
				t.Fatal(err)
			}
			if g.NumNodes() != ds.G.NumNodes() || g.NumEdges() != ds.G.NumEdges() {
				t.Fatalf("graph round trip changed shape")
			}
			ex, err := art.Export()
			if err != nil {
				t.Fatal(err)
			}
			res2, err := core.NewPipeline(core.Config{Seed: 1}).RunFromArtifact(ex)
			if err != nil {
				t.Fatal(err)
			}
			if res2.Edges.Len() != res.Edges.Len() {
				t.Fatalf("%d predictions, want %d", res2.Edges.Len(), res.Edges.Len())
			}
			for _, k := range res.Edges.Keys() {
				gl, got, _ := res2.Edges.Lookup(k)
				wl, want, _ := res.Edges.Lookup(k)
				if gl != wl {
					t.Fatalf("edge %d: prediction %v, want %v", k, gl, wl)
				}
				if len(got) != len(want) {
					t.Fatalf("edge %d: %d probabilities, want %d", k, len(got), len(want))
				}
				for c := range want {
					if got[c] != want[c] { // bit-identical, not approximately equal
						t.Fatalf("edge %d class %d: probability %v, want %v", k, c, got[c], want[c])
					}
				}
			}
			if res2.NumCommunities() != res.NumCommunities() {
				t.Fatalf("%d communities, want %d", res2.NumCommunities(), res.NumCommunities())
			}
			if res2.Classifier == nil {
				t.Fatal("loaded result has no classifier")
			}
			if res2.Combiner == nil {
				t.Fatal("loaded result has no combiner")
			}
			if res2.Times.Training != res.Times.Training {
				t.Fatalf("training time not preserved: %v vs %v", res2.Times.Training, res.Times.Training)
			}
		})
	}
}

// TestLoadedClassifierReproducesPhaseII proves the persisted Phase II
// model is the same function as the trained one: re-classifying bare
// copies of every community yields the original probability vectors.
func TestLoadedClassifierReproducesPhaseII(t *testing.T) {
	ds, res, data := saved(t, "xgb")
	art, err := artifact.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := art.Export()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := core.NewPipeline(core.Config{Seed: 1}).RunFromArtifact(ex)
	if err != nil {
		t.Fatal(err)
	}
	shells := make([]*core.LocalCommunity, len(res.Communities))
	for i, c := range res.Communities {
		shells[i] = &core.LocalCommunity{Ego: c.Ego, Members: c.Members, Tightness: c.Tightness}
	}
	res2.Classifier.Classify(ds, shells)
	for i, c := range res.Communities {
		for j := range c.Probs {
			if shells[i].Probs[j] != c.Probs[j] {
				t.Fatalf("community %d class %d: %v, want %v", i, j, shells[i].Probs[j], c.Probs[j])
			}
		}
	}
}

// TestSaveDeterministic pins byte-determinism: identical training inputs
// yield byte-identical artifacts once the (wall-clock) phase timings are
// normalized — Save itself invents no timestamps or ordering.
func TestSaveDeterministic(t *testing.T) {
	serialize := func() []byte {
		ds, res := trainedRun(t, "xgb")
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
	if !bytes.Equal(serialize(), serialize()) {
		t.Fatal("identical runs produced different artifact bytes")
	}
}

func TestCorruptionTruncated(t *testing.T) {
	_, _, data := saved(t, "xgb")
	for _, cut := range []int{4, len(artifact.Magic) + 8, len(data) / 2, len(data) - 7} {
		_, err := artifact.Load(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("cut at %d bytes: no error", cut)
		}
		if !errors.Is(err, artifact.ErrTruncated) {
			t.Fatalf("cut at %d bytes: error %v, want ErrTruncated", cut, err)
		}
	}
}

func TestCorruptionBadMagic(t *testing.T) {
	_, _, data := saved(t, "xgb")
	bad := bytes.Clone(data)
	bad[0] ^= 0xFF
	_, err := artifact.Load(bytes.NewReader(bad))
	if !errors.Is(err, artifact.ErrBadMagic) {
		t.Fatalf("error %v, want ErrBadMagic", err)
	}
}

func TestCorruptionFutureVersion(t *testing.T) {
	_, _, data := saved(t, "xgb")
	bad := bytes.Clone(data)
	bad[len(artifact.Magic)] = 0xFF // version low byte
	_, err := artifact.Load(bytes.NewReader(bad))
	if !errors.Is(err, artifact.ErrVersion) {
		t.Fatalf("error %v, want ErrVersion", err)
	}
	if err != nil && !strings.Contains(err.Error(), "version") {
		t.Fatalf("error %v should name the version", err)
	}
}

func TestCorruptionChecksum(t *testing.T) {
	_, _, data := saved(t, "xgb")
	bad := bytes.Clone(data)
	bad[len(bad)-1] ^= 0xFF // flip a bit in the last section's payload
	_, err := artifact.Load(bytes.NewReader(bad))
	if !errors.Is(err, artifact.ErrChecksum) {
		t.Fatalf("error %v, want ErrChecksum", err)
	}
}

// TestCorruptionNeverPanics drives the shared corruption diet — bit
// flips, truncations, duplicated bytes — through Load *and* full decode;
// any outcome is acceptable except a panic. FuzzArtifact seeds from the
// same corpus (over an artifact with a dataset section) and goes further
// under -fuzz.
func TestCorruptionNeverPanics(t *testing.T) {
	_, _, data := saved(t, "xgb")
	for _, bad := range testutil.Corruptions(data) {
		decodeArtifact(bad)
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := artifact.LoadFile(t.TempDir() + "/nope.locec"); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestSaveLoadFile(t *testing.T) {
	ds, _, data := saved(t, "xgb")
	art, err := artifact.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.locec"
	if err := art.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := artifact.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta().Nodes != ds.G.NumNodes() {
		t.Fatalf("meta nodes %d, want %d", back.Meta().Nodes, ds.G.NumNodes())
	}
}
