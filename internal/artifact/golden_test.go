package artifact_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/gbdt"
	"locec/internal/graph"
	"locec/internal/social"
	"locec/internal/wechat"
)

// goldenSHA256 pins the exact bytes Save writes for three fixed-seed
// pipelines, recorded on amd64 (the platform the repo's bit-identity
// claims are proven on). A change to any section encoder, to the section
// order or to the header shows up here as a hash change; the format
// promises the bytes only change with FormatVersion.
var goldenSHA256 = map[string]string{
	"labelprop+xgb":             "ea3c14eac3f8e3e66a061176b51d0c506427fb147ecacfa2d9bbb7f24ea54674",
	"gn+cnn":                    "143c47d1b39d1e11859a2c65a14758cc1533f83b7db996f32201923463692045",
	"clauset+xgb+dataset+delta": "2259a38992e152eebc8caa0aad603ca1cc833f49ad69e246874fe05173f7d52f",
}

// goldenArtifact trains the named pipeline on the n = 80 substrate and
// returns its artifact with wall-clock timings zeroed. The clauset run also
// applies one mutation epoch, so its embedded dataset carries an edit delta.
func goldenArtifact(t *testing.T, name string) *artifact.Artifact {
	t.Helper()
	net, err := wechat.Generate(wechat.DefaultConfig(80, 7))
	if err != nil {
		t.Fatal(err)
	}
	net.RunSurvey(0.5, 8)
	ds := net.Dataset
	cfg := core.Config{
		Division:   core.DivisionConfig{Detector: core.DetectorLabelProp, Seed: 1},
		Classifier: &core.XGBClassifier{Seed: 1, Config: gbdt.Config{Rounds: 12}},
		Seed:       1,
	}
	switch name {
	case "gn+cnn":
		cfg.Division.Detector = core.DetectorGirvanNewman
		cfg.Classifier = &core.CNNClassifier{K: 8, Epochs: 2, Workers: 2, Seed: 1}
	case "clauset+xgb+dataset+delta":
		cfg.Division.Detector = core.DetectorClauset
	}
	p := core.NewPipeline(cfg)
	res, err := p.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	if name == "clauset+xgb+dataset+delta" {
		u := graph.NodeID(0)
		v := ds.G.Neighbors(u)[0]
		w := ds.G.Neighbors(1)[0]
		var free graph.NodeID = 2
		for ds.G.HasEdge(u, free) || free == u {
			free++
		}
		inter := make([]float64, social.NumInteractionDims)
		inter[0], inter[2] = 1, 3
		batch := []core.Mutation{
			{Kind: core.MutRemove, U: u, V: v},
			{Kind: core.MutAdd, U: u, V: free, Label: social.Label(1), Revealed: true, Interactions: inter},
			{Kind: core.MutRelabel, U: 1, V: w, Label: social.Label(2)},
		}
		if ds, res, _, err = p.ApplyMutations(ds, res, batch); err != nil {
			t.Fatal(err)
		}
		if ds.NumEdits() == 0 {
			t.Fatal("the mutated dataset carries no edit delta")
		}
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
	if name == "clauset+xgb+dataset+delta" {
		if err := art.EmbedDataset(ds); err != nil {
			t.Fatal(err)
		}
		art.StampWAL(1, 3)
	}
	return art
}

func saveBytes(t *testing.T, a *artifact.Artifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reloaded returns Save(Load(b)).
func reloaded(t *testing.T, b []byte) []byte {
	t.Helper()
	a, err := artifact.Load(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return saveBytes(t, a)
}

// TestSaveRefusesAChangingSection: Save measures each section in a first
// pass and writes it in a second; a section whose bytes change in between
// would leave the header's length or CRC wrong, so Save fails instead.
func TestSaveRefusesAChangingSection(t *testing.T) {
	ds, res := trainedRun(t, "xgb")
	ex, err := res.Export()
	if err != nil {
		t.Fatal(err)
	}
	art, err := artifact.New(ds.G, ex, 7)
	if err != nil {
		t.Fatal(err)
	}
	_, probs, _ := ex.Edges.Lookup(ex.Edges.Keys()[0])
	w := &headerHook{after: func() { probs[0]++ }}
	if err := art.Save(w); err == nil || !strings.Contains(err.Error(), "preds section changed") {
		t.Fatalf("Save over a section changed between its passes = %v, want a preds-section error", err)
	}
}

// headerHook calls after once the first write — Save's header — is done.
type headerHook struct {
	after func()
	done  bool
}

func (h *headerHook) Write(p []byte) (int, error) {
	if !h.done {
		h.done = true
		h.after()
	}
	return len(p), nil
}

// TestSaveGoldenBytes: Save's output is pinned by hash for three pipelines,
// and a loaded artifact (full, and each cut shard) saves back to the bytes
// it was loaded from.
func TestSaveGoldenBytes(t *testing.T) {
	for name, want := range goldenSHA256 {
		t.Run(name, func(t *testing.T) {
			b := saveBytes(t, goldenArtifact(t, name))
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != want && runtime.GOARCH == "amd64" {
				t.Errorf("sha256(Save) = %s, want %s (%d bytes)", got, want, len(b))
			}
			if !bytes.Equal(reloaded(t, b), b) {
				t.Fatal("Save(Load(b)) != b")
			}
			loaded, err := artifact.Load(bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			shards, err := artifact.CutShards(loaded, 3)
			if err != nil {
				t.Fatal(err)
			}
			for i, sh := range shards {
				sb := saveBytes(t, sh)
				if !bytes.Equal(reloaded(t, sb), sb) {
					t.Fatalf("shard %d: Save(Load(b)) != b", i)
				}
			}
		})
	}
}

// fixtures are the artifacts the cut and Save tests run on, by name: the
// three goldens as Save writes them, and the checked-in version 1, 2 and 3
// files.
func fixtures(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for name := range goldenSHA256 {
		out[name] = saveBytes(t, goldenArtifact(t, name))
	}
	for _, name := range []string{"golden-labelprop+xgb-v1.locec", "golden-gn+cnn-v2.locec", "golden-labelprop+xgb-v3.locec"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = b
	}
	return out
}

// TestSaveCopiesWhatItNeverDecoded: a loaded artifact saves to the same
// bytes before any accessor call (every section copied, at the current
// format version) and after Graph, Export and Dataset decoded its sections
// in turn (each one encoded); at the current version those are its input
// bytes, and an older file saves as the current version.
func TestSaveCopiesWhatItNeverDecoded(t *testing.T) {
	for name, data := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			a, err := artifact.LoadBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			want := saveBytes(t, a)
			back, err := artifact.LoadBytes(want)
			if err != nil {
				t.Fatal(err)
			}
			if v := back.Meta().FormatVersion; v != artifact.FormatVersion {
				t.Fatalf("saved as format version %d, want %d", v, artifact.FormatVersion)
			}
			if a.Meta().FormatVersion == artifact.FormatVersion && !bytes.Equal(want, data) {
				t.Fatal("Save of a loaded artifact differs from its input")
			}
			decode := []func() error{
				func() error { _, err := a.Graph(); return err },
				func() error { _, err := a.Export(); return err },
				func() error { _, err := a.Dataset(); return err },
			}
			for i, f := range decode {
				if err := f(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(saveBytes(t, a), want) {
					t.Fatalf("Save after decoding step %d differs from Save before it", i)
				}
			}
		})
	}
}
