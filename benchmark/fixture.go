package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	"locec/internal/artifact"
	"locec/internal/graph"
	"locec/internal/social"
)

// fixtureEnv carries a fixtureSpec to a child process of this binary. The
// serving workloads train their artifact there, so the workload process's
// peak RSS is what loading and serving need, not what training needed.
const fixtureEnv = "LOCEC_BENCHMARK_FIXTURE"

// fixtureSpec describes the trained artifact a serving workload starts
// from.
type fixtureSpec struct {
	Data datasetSpec  `json:"data"`
	Pipe pipelineSpec `json:"pipe"`
	// Embed stores the raw dataset in the artifact, which makes the
	// restored snapshot mutable.
	Embed bool `json:"embed"`
	// Path is where the child writes; the parent fills it in.
	Path string `json:"path,omitempty"`
}

// fixtureInfo is what the child reports back beside the artifact file.
type fixtureInfo struct {
	TrainS  float64 `json:"train_s"`
	MacroF1 float64 `json:"macro_f1"`
	Missing int     `json:"missing"`
	// Labels holds the predicted label of every edge, in the graph's edge
	// order: the in-process reference that served labels are compared to.
	Labels []byte `json:"labels"`
}

// fixture is a trained artifact on disk plus what the client needs to
// build and check requests against it.
type fixture struct {
	fixtureInfo
	Path  string
	Bytes int64
	Graph *graph.Graph
	// labelOf maps an edge key to the label the trained model predicts.
	labelOf map[uint64]social.Label
}

// ranFixtureChild trains and saves the fixture when this process was
// started as a fixture child, and reports whether it was.
func ranFixtureChild() bool {
	raw := os.Getenv(fixtureEnv)
	if raw == "" {
		return false
	}
	var spec fixtureSpec
	err := json.Unmarshal([]byte(raw), &spec)
	if err == nil {
		err = buildFixture(spec)
	}
	if err != nil {
		fatalf("fixture: %v", err)
	}
	return true
}

func buildFixture(spec fixtureSpec) error {
	ds, err := generate(spec.Data)
	if err != nil {
		return err
	}
	res, d, err := pipelineRun(spec.Pipe, ds)
	if err != nil {
		return err
	}
	info := fixtureInfo{TrainS: d.Seconds()}
	info.MacroF1, info.Missing = heldOutMacroF1(ds, res)
	ds.G.ForEachEdge(func(u, v graph.NodeID) {
		l, _ := res.PredictedLabelOK(u, v)
		info.Labels = append(info.Labels, byte(l))
	})
	ex, err := res.Export()
	if err != nil {
		return err
	}
	art, err := artifact.New(ds.G, ex, pipelineSeed)
	if err != nil {
		return err
	}
	if spec.Embed {
		if err := art.EmbedDataset(ds); err != nil {
			return err
		}
	}
	if err := art.SaveFile(spec.Path); err != nil {
		return err
	}
	data, err := json.Marshal(info)
	if err != nil {
		return err
	}
	return os.WriteFile(spec.Path+".json", data, 0o644)
}

// fixtureFile names the cached artifact of a spec under <out>/fixtures. The
// key covers the spec and the bytes of this executable, so a benchmark
// rebuilt from changed source retrains and every run of one build shares
// one training: the fixture does not depend on the run's seed, only the
// request schedule does.
func fixtureFile(out, name string, spec fixtureSpec) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	if err := json.NewEncoder(h).Encode(spec); err != nil {
		return "", err
	}
	return filepath.Abs(filepath.Join(out, "fixtures", fmt.Sprintf("%s-%x.locec", name, h.Sum(nil)[:6])))
}

// trainFixture returns the fixture of spec, training it in a child process
// first unless an earlier run of this build left it in the cache, and loads
// what the client side needs: the graph (the artifact decodes sections
// lazily, so only that section is read) and the reference labels.
func trainFixture(out, name string, spec fixtureSpec) (*fixture, error) {
	path, err := fixtureFile(out, name, spec)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(path); err != nil {
		if err := runFixtureChild(path, name, spec); err != nil {
			return nil, err
		}
	}
	fx := &fixture{Path: path}
	data, err := os.ReadFile(path + ".json")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &fx.fixtureInfo); err != nil {
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	fx.Bytes = st.Size()
	art, err := artifact.LoadFile(path)
	if err != nil {
		return nil, err
	}
	if fx.Graph, err = art.Graph(); err != nil {
		return nil, err
	}
	if fx.Missing > 0 || len(fx.Labels) != fx.Graph.NumEdges() {
		return nil, fmt.Errorf("fixture: %d labels for %d edges, %d edges without a prediction", len(fx.Labels), fx.Graph.NumEdges(), fx.Missing)
	}
	fx.labelOf = make(map[uint64]social.Label, len(fx.Labels))
	i := 0
	fx.Graph.ForEachEdge(func(u, v graph.NodeID) {
		fx.labelOf[(graph.Edge{U: u, V: v}).Key()] = social.Label(fx.Labels[i])
		i++
	})
	return fx, nil
}

// runFixtureChild trains into temporary names and renames the sidecar
// first, the artifact last: an artifact in the cache is always complete.
// Fixtures of the same name left by other builds are dropped.
func runFixtureChild(path, name string, spec fixtureSpec) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	stale, _ := filepath.Glob(filepath.Join(filepath.Dir(path), name+"-*"))
	for _, f := range stale {
		_ = os.Remove(f)
	}
	spec.Path = fmt.Sprintf("%s.tmp%d", path, os.Getpid())
	raw, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	child := exec.Command(exe)
	child.Env = append(os.Environ(), fixtureEnv+"="+string(raw))
	child.Stdout, child.Stderr = os.Stderr, os.Stderr
	if err := child.Run(); err != nil {
		return fmt.Errorf("fixture child: %w", err)
	}
	if err := os.Rename(spec.Path+".json", path+".json"); err != nil {
		return err
	}
	return os.Rename(spec.Path, path)
}

// scratchDir makes a fresh directory for one run's files under cfg.Out and
// returns it with its cleanup.
func scratchDir(cfg runConfig) (string, func(), error) {
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(cfg.Out, "scratch-"+cfg.Workload+"-")
	if err != nil {
		return "", nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", nil, err
	}
	return abs, func() { _ = os.RemoveAll(abs) }, nil
}
