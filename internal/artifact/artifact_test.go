package artifact_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"slices"
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
	if variant == "cnn" {
		return trainedOn(t, 80, core.Config{
			Division:   core.DivisionConfig{Detector: core.DetectorLabelProp, Seed: 1},
			Classifier: &core.CNNClassifier{K: 8, Epochs: 2, Seed: 1},
			Seed:       1,
		})
	}
	return trainedOn(t, 80, xgbUnder(core.DetectorLabelProp))
}

// xgbUnder is the XGB configuration under Phase I detector det.
func xgbUnder(det core.DetectorKind) core.Config {
	return core.Config{
		Division:   core.DivisionConfig{Detector: det, Seed: 1},
		Classifier: &core.XGBClassifier{Seed: 1},
		Seed:       1,
	}
}

// trainedOn runs cfg on a surveyed network of users nodes.
func trainedOn(t testing.TB, users int, cfg core.Config) (*core.Pipeline, *social.Dataset, *core.Result) {
	t.Helper()
	net, err := wechat.Generate(wechat.DefaultConfig(users, 7))
	if err != nil {
		t.Fatal(err)
	}
	net.RunSurvey(0.5, 8)
	p := core.NewPipeline(cfg)
	res, err := p.Run(net.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	return p, net.Dataset, res
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
			if res2.Division != res.Division {
				t.Fatalf("division rule %+v, want %+v", res2.Division, res.Division)
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

// TestLoadRefusesDeletedDetector: an artifact whose meta records "lemon",
// a detector deleted from the registry, fails Load with the
// unknown-detector error, which names the five that remain. The name is
// rewritten in place, padded with JSON whitespace so no section moves, and
// the CRCs resealed.
func TestLoadRefusesDeletedDetector(t *testing.T) {
	_, _, data := saved(t, "xgb")
	recorded := []byte(`"detector":"labelprop"`)
	if n := bytes.Count(data, recorded); n != 1 {
		t.Fatalf("saved artifact holds %s %d times, want once", recorded, n)
	}
	bad := bytes.Replace(data, recorded, []byte(`"detector":"lemon"    `), 1)
	_, err := artifact.Load(bytes.NewReader(reseal(bad)))
	want := `core: unknown detector "lemon" (want one of [gn labelprop louvain clauset lshell])`
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Load: %v, want an error containing %s", err, want)
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

// loadTestdata loads a checked-in artifact from testdata/.
func loadTestdata(t testing.TB, name string) *artifact.Artifact {
	t.Helper()
	art, err := artifact.LoadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// TestVersion1Restores reads a checked-in version 1 LoCEC-XGB file (the
// n = 20 fuzz seed as gencorpus wrote it before the meta recorded the
// division rule): it loads, its export divides by exact Girvan–Newman
// under its dataset seed, and Restore refuses it by name, because its
// combiner reads the leaf-value rows of format versions 1 and 2.
func TestVersion1Restores(t *testing.T) {
	art := loadTestdata(t, "golden-labelprop+xgb-v1.locec")
	if v := art.Meta().FormatVersion; v != 1 {
		t.Fatalf("golden-labelprop+xgb-v1.locec is format version %d, want 1", v)
	}
	ex, err := art.Export()
	if err != nil {
		t.Fatal(err)
	}
	if want := (core.DivisionConfig{Detector: core.DetectorGirvanNewman, Seed: 7}); ex.Division != want {
		t.Fatalf("division rule %+v, want %+v", ex.Division, want)
	}
	if _, _, _, err := art.Restore(); !errors.Is(err, core.ErrCombinerWidth) || !strings.Contains(err.Error(), "retrain") {
		t.Fatalf("Restore of a version 1 LoCEC-XGB artifact = %v, want ErrCombinerWidth asking to retrain", err)
	}
}

// TestVersion2CNNRestoresAsVersion3: the gn+cnn golden as format version
// 2 wrote it (its second float run per community repeated Probs) restores
// to exactly what the current golden restores to, as it did to the
// version 3 golden — Probs, combiner and predictions ==, division rule
// included — and saves back to the current golden's bytes.
func TestVersion2CNNRestoresAsVersion3(t *testing.T) {
	requireRestoresAsGolden(t, "golden-gn+cnn-v2.locec", 2, "gn+cnn")
}

// TestVersion3XGBRestoresAsVersion4: the labelprop+xgb golden as format
// version 3 wrote it (its model section the ensemble's JSON) restores to
// exactly what the version 4 golden restores to and saves back to its
// bytes, the model re-encoded as gbdt's binary forest.
func TestVersion3XGBRestoresAsVersion4(t *testing.T) {
	requireRestoresAsGolden(t, "golden-labelprop+xgb-v3.locec", 3, "labelprop+xgb")
}

// requireRestoresAsGolden checks that the checked-in file of an older
// format version restores to what the named golden, as Save writes it
// now, restores to, and that it saves to the golden's bytes.
func requireRestoresAsGolden(t *testing.T, file string, version int, golden string) {
	t.Helper()
	old := loadTestdata(t, file)
	if v := old.Meta().FormatVersion; v != version {
		t.Fatalf("%s is format version %d, want %d", file, v, version)
	}
	want := saveBytes(t, goldenArtifact(t, golden))
	cur, err := artifact.Load(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	_, got, _, err := old.Restore()
	if err != nil {
		t.Fatal(err)
	}
	_, ref, _, err := cur.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if got.Division != ref.Division || got.NumCommunities() != ref.NumCommunities() {
		t.Fatalf("division %+v with %d communities, want %+v with %d",
			got.Division, got.NumCommunities(), ref.Division, ref.NumCommunities())
	}
	for u, er := range ref.Egos {
		for i, c := range er.Comms {
			if g := got.Egos[u].Comms[i]; !slices.Equal(g.Probs, c.Probs) || cap(g.Probs) != len(g.Probs) {
				t.Fatalf("ego %d community %d: Probs %v (cap %d), want %v", u, i, g.Probs, cap(g.Probs), c.Probs)
			}
		}
	}
	if g, r := got.Combiner, ref.Combiner; g.Classes != r.Classes || g.Features != r.Features || !slices.Equal(g.W, r.W) {
		t.Fatalf("combiner %d×%d differs from the golden's %d×%d", g.Classes, g.Features, r.Classes, r.Features)
	}
	keys := ref.Edges.Keys()
	if !slices.Equal(got.Edges.Keys(), keys) {
		t.Fatal("predicted edge keys differ")
	}
	for _, k := range keys {
		gl, gp, _ := got.Edges.Lookup(k)
		rl, rp, _ := ref.Edges.Lookup(k)
		if gl != rl || !slices.Equal(gp, rp) {
			t.Fatalf("edge %d: %v %v, want %v %v", k, gl, gp, rl, rp)
		}
	}
	if !bytes.Equal(saveBytes(t, old), want) {
		t.Fatalf("%s does not save to the %s golden's bytes", file, golden)
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
