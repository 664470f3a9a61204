// Package trained gives tests the small trained artifacts servers boot
// from. Each is trained the way `locec train` trains — core.Pipeline, then
// artifact.New — once per process for a (users, detector, dataset
// embedded) key, and kept with the training run's in-memory state, so a
// test can hold a restored server to the run it was restored from.
package trained

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/gbdt"
	"locec/internal/logreg"
	"locec/internal/social"
	"locec/internal/wechat"
)

// Seed drives every trained network: the generator, the survey (Seed+1)
// and the pipeline.
const Seed = 7

// Run is one trained artifact file and the training run behind it. The
// dataset, result and pipeline are shared by every caller of the same
// key: treat them as read-only.
type Run struct {
	// Path is the artifact file, written with the dataset embedded
	// (mutable) or without it (train-only) as asked.
	Path     string
	Dataset  *social.Dataset
	Result   *core.Result
	Pipeline *core.Pipeline
}

var (
	mu   sync.Mutex
	runs = map[string]*Run{}
	dir  string
)

// Artifact returns the artifact trained on a WeChat-like network of users
// users (half its edges surveyed) by label propagation or another
// detector named as core.ParseDetector reads it, then LoCEC-XGB (5
// rounds, depth 3). embed embeds the dataset, as `locec train
// -embed-dataset` and every WAL checkpoint do.
func Artifact(tb testing.TB, users int, detector string, embed bool) *Run {
	tb.Helper()
	mu.Lock()
	defer mu.Unlock()
	key := fmt.Sprintf("%d/%s/%v", users, detector, embed)
	if r, ok := runs[key]; ok {
		return r
	}
	r, err := train(users, detector, embed)
	if err != nil {
		tb.Fatalf("trained.Artifact(%d, %q, %v): %v", users, detector, embed, err)
	}
	runs[key] = r
	return r
}

// train runs the pipeline, reusing the other embed setting's training run
// when there is one, and saves the artifact. Callers hold mu.
func train(users int, detector string, embed bool) (*Run, error) {
	r := runs[fmt.Sprintf("%d/%s/%v", users, detector, !embed)]
	if r == nil {
		det, err := core.ParseDetector(detector)
		if err != nil {
			return nil, err
		}
		net, err := wechat.Generate(wechat.DefaultConfig(users, Seed))
		if err != nil {
			return nil, err
		}
		net.RunSurvey(0.5, Seed+1)
		pipe := core.NewPipeline(core.Config{
			Division: core.DivisionConfig{Detector: det, Seed: Seed},
			Classifier: &core.XGBClassifier{
				Config: gbdt.Config{Rounds: 5, MaxDepth: 3, Seed: Seed},
				Seed:   Seed,
			},
			Combiner: logreg.Config{Classes: social.NumLabels, Seed: Seed + 101},
			Seed:     Seed,
		})
		res, err := pipe.Run(net.Dataset)
		if err != nil {
			return nil, err
		}
		r = &Run{Dataset: net.Dataset, Result: res, Pipeline: pipe}
	}
	ex, err := r.Result.Export()
	if err != nil {
		return nil, err
	}
	art, err := artifact.New(r.Dataset.G, ex, Seed)
	if err != nil {
		return nil, err
	}
	if embed {
		if err := art.EmbedDataset(r.Dataset); err != nil {
			return nil, err
		}
	}
	if dir == "" {
		if dir, err = os.MkdirTemp("", "locec-trained-"); err != nil {
			return nil, err
		}
	}
	out := *r
	out.Path = filepath.Join(dir, fmt.Sprintf("%d-%s-embed=%v.locec", users, detector, embed))
	return &out, art.SaveFile(out.Path)
}
