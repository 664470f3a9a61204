package artifact_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
	"labelprop+xgb":             "ff3c403934f7f462b4eef7dc94deb92067c8efd53042599855029e6751917df7",
	"gn+cnn":                    "5d05a2695496f7730799c5a096542d31f0f68cfdafcd465e6cca1ff82c20e702",
	"clauset+xgb+dataset+delta": "6c675f60215676a88a038e88f569f8692f5612f2e2024a7a80bb973ba0df45b8",
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
	keys, _, _ := ex.Edges.Chunk(0)
	_, probs, _ := ex.Edges.Lookup(keys[0])
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
