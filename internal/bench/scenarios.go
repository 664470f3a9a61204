package bench

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/logreg"
	"locec/internal/serve"
	"locec/internal/social"
	"locec/internal/tensor"
)

// densityName labels the standard density multipliers in scenario names.
func densityName(mult float64) string {
	switch mult {
	case 0.5:
		return "sparse"
	case 1.0:
		return "base"
	case 2.0:
		return "dense"
	default:
		return fmt.Sprintf("x%g", mult)
	}
}

// detectorKind maps a detector name to the Phase I configuration; the
// registry (core.ParseDetector) covers the global and the seed-grown
// local detectors alike.
func detectorKind(name string) (core.DetectorKind, error) {
	kind, err := core.ParseDetector(name)
	if err != nil {
		return 0, fmt.Errorf("bench: %w", err)
	}
	return kind, nil
}

// PipelineScenario measures a full three-phase run (Table VI's unit) on a
// synthetic dataset of the given scale and density, recording per-phase
// durations. The XGBoost classifier and label-propagation detector keep
// the scenario about pipeline mechanics rather than CNN training time.
func PipelineScenario(users int, density float64) Scenario {
	name := fmt.Sprintf("pipeline/xgb/n=%d/density=%s", users, densityName(density))
	return Scenario{
		Name: name,
		Params: map[string]string{
			"users":      fmt.Sprint(users),
			"density":    densityName(density),
			"classifier": "xgb",
			"detector":   "labelprop",
		},
		Prepare: func() (RunFunc, error) {
			ds, err := Dataset(users, density, 42)
			if err != nil {
				return nil, err
			}
			return func(m *M) error {
				p := core.NewPipeline(core.Config{
					Division:   core.DivisionConfig{Detector: core.DetectorLabelProp, Seed: 1},
					Classifier: &core.XGBClassifier{Seed: 1},
					Seed:       1,
				})
				res, err := p.Run(ds)
				if err != nil {
					return err
				}
				m.RecordPhases(res.Times)
				return nil
			}, nil
		},
	}
}

// TrainCommCNNScenario measures Phase II CommCNN training alone — the
// cost our pipeline profiles show dominating end-to-end runs, and the
// workload the im2col/GEMM + scratch-buffer engine in internal/nn is
// built for. Phase I runs once in Prepare; each repetition trains a fresh
// classifier on the same labeled communities.
func TrainCommCNNScenario(users, epochs int) Scenario {
	return Scenario{
		Name: fmt.Sprintf("train/commcnn/n=%d/epochs=%d", users, epochs),
		Params: map[string]string{
			"users":      fmt.Sprint(users),
			"epochs":     fmt.Sprint(epochs),
			"classifier": "cnn",
			"detector":   "labelprop",
		},
		Prepare: func() (RunFunc, error) {
			ds, err := Dataset(users, 1.0, 42)
			if err != nil {
				return nil, err
			}
			egos := core.Divide(ds, core.DivisionConfig{Detector: core.DetectorLabelProp, Seed: 1})
			var comms []*core.LocalCommunity
			var labels []social.Label
			for _, er := range egos {
				for _, c := range er.Comms {
					if l := c.TruthLabel(); l.Valid() {
						comms = append(comms, c)
						labels = append(labels, l)
					}
				}
			}
			if len(comms) == 0 {
				return nil, fmt.Errorf("bench: fixture has no labeled communities")
			}
			return func(m *M) error {
				cl := &core.CNNClassifier{K: 20, Epochs: epochs, Seed: 1}
				t0 := time.Now()
				if err := cl.Fit(ds, comms, labels); err != nil {
					return err
				}
				m.RecordPhase("training", time.Since(t0))
				return nil
			}, nil
		},
	}
}

// GBDTTrainScenario measures Phase II training alone: pooled-feature
// assembly plus gbdt.Train. Phase I runs once in Prepare; each repetition
// trains a fresh boosted ensemble on the same labeled communities.
func GBDTTrainScenario(users int) Scenario {
	return Scenario{
		Name: fmt.Sprintf("gbdt/train/n=%d", users),
		Params: map[string]string{
			"users":      fmt.Sprint(users),
			"classifier": "xgb",
			"detector":   "labelprop",
		},
		Prepare: func() (RunFunc, error) {
			ds, err := Dataset(users, 1.0, 42)
			if err != nil {
				return nil, err
			}
			egos := core.Divide(ds, core.DivisionConfig{Detector: core.DetectorLabelProp, Seed: 1})
			var comms []*core.LocalCommunity
			var labels []social.Label
			for _, er := range egos {
				for _, c := range er.Comms {
					if l := c.TruthLabel(); l.Valid() {
						comms = append(comms, c)
						labels = append(labels, l)
					}
				}
			}
			if len(comms) == 0 {
				return nil, fmt.Errorf("bench: fixture has no labeled communities")
			}
			return func(m *M) error {
				cl := &core.XGBClassifier{Seed: 1}
				t0 := time.Now()
				if err := cl.Fit(ds, comms, labels); err != nil {
					return err
				}
				m.RecordPhase("training", time.Since(t0))
				return nil
			}, nil
		},
	}
}

// CombineScenario measures Phase III alone: logistic-regression training
// on the labeled edge features plus prediction over every edge, on a
// pipeline result whose Phases I+II were computed once in Prepare. This
// isolates the parallel chunked combiner and its flat prediction stores.
// The epochs the combiner's stopped fit ran are reported beside the wall
// clock.
func CombineScenario(users int) Scenario {
	return Scenario{
		Name: fmt.Sprintf("combine/n=%d", users),
		Params: map[string]string{
			"users":      fmt.Sprint(users),
			"classifier": "xgb",
			"detector":   "labelprop",
		},
		Prepare: func() (RunFunc, error) {
			ds, err := Dataset(users, 1.0, 42)
			if err != nil {
				return nil, err
			}
			p := core.NewPipeline(core.Config{
				Division:   core.DivisionConfig{Detector: core.DetectorLabelProp, Seed: 1},
				Classifier: &core.XGBClassifier{Seed: 1},
				Seed:       1,
			})
			res, err := p.Run(ds)
			if err != nil {
				return nil, err
			}
			return func(m *M) error {
				shell := &core.Result{Egos: res.Egos, Communities: res.Communities}
				t0 := time.Now()
				if err := p.Combine(ds, shell); err != nil {
					return err
				}
				m.RecordPhase("combination", time.Since(t0))
				m.RecordCount("epochs", float64(shell.Combiner.EpochsRun))
				return nil
			}, nil
		},
	}
}

// LogregTrainScenario measures the Phase III combiner's trainer alone:
// softmax regression over a synthetic feature matrix at the combiner shape
// (182-wide rows, 3 classes, default hyperparameters). It isolates
// logreg.Train — standardisation, batched kernels and the held-out stop —
// from feature construction and the rest of the pipeline, so a solver
// regression shows here even when combine/... is dominated by prediction
// or setup cost. Labels come from a planted linear teacher with noise, so
// the fit converges and stops the way the combiner's does; labels drawn
// independently of the features would time the stop's patience, not
// training. The epochs it ran are reported beside the wall clock.
func LogregTrainScenario(rows int) Scenario {
	return Scenario{
		Name: fmt.Sprintf("logreg/train/n=%d", rows),
		Params: map[string]string{
			"rows":     fmt.Sprint(rows),
			"features": "182",
			"classes":  "3",
		},
		Prepare: func() (RunFunc, error) {
			// 2 tightness values + two 90-wide r_C embeddings: the edge
			// feature width the xgb pipeline feeds the combiner.
			const features, classes = 182, 3
			// Label noise at about a fifth of the teacher scores' spread
			// (√182 ≈ 13.5): the held-out loss bottoms out after about ten
			// epochs, as it does on the combiner's real rows.
			const noise = 3.0
			rng := rand.New(rand.NewSource(42))
			teacher := make([]float64, classes*features)
			for i := range teacher {
				teacher[i] = rng.NormFloat64()
			}
			flat := make([]float64, rows*features)
			for i := range flat {
				flat[i] = rng.NormFloat64()
			}
			X := make([][]float64, rows)
			y := make([]int, rows)
			scores := make([]float64, classes)
			for i := range X {
				X[i] = flat[i*features : (i+1)*features]
				for c := range scores {
					scores[c] = noise*rng.NormFloat64() + tensor.Dot(teacher[c*features:(c+1)*features], X[i])
				}
				y[i] = tensor.ArgMax(scores)
			}
			cfg := logreg.Config{Classes: classes, Seed: 7}
			return func(m *M) error {
				model, err := logreg.Train(X, y, cfg)
				if err != nil {
					return err
				}
				m.RecordCount("epochs", float64(model.EpochsRun))
				return nil
			}, nil
		},
	}
}

// DivideScenario measures Phase I alone with one community-detection
// algorithm — the detector-comparison axis.
func DivideScenario(detector string, users int) Scenario {
	return Scenario{
		Name: fmt.Sprintf("divide/%s/n=%d", detector, users),
		Params: map[string]string{
			"users":    fmt.Sprint(users),
			"detector": detector,
		},
		Prepare: func() (RunFunc, error) {
			kind, err := detectorKind(detector)
			if err != nil {
				return nil, err
			}
			ds, err := Dataset(users, 1.0, 42)
			if err != nil {
				return nil, err
			}
			cfg := core.DivisionConfig{Detector: kind, Seed: 1}
			return func(m *M) error {
				t0 := time.Now()
				core.Divide(ds, cfg)
				m.RecordPhase("division", time.Since(t0))
				return nil
			}, nil
		},
	}
}

// IncrementalApplyScenario measures one mutation epoch through the
// incremental engine: a single-edge add applied to a trained snapshot via
// core.Pipeline.ApplyMutations (copy-on-write), recomputing only the dirty
// neighborhood — re-divided egos, re-classified communities, re-predicted
// incident edges — against the frozen models. Training runs once in
// Prepare; every repetition applies the same batch to the same base, so
// the number is the steady-state cost of absorbing a graph change while
// serving. Compare against pipeline/xgb at the same n: the ratio is what
// dirty-set propagation saves over retrain-and-reload per mutation.
func IncrementalApplyScenario(users int) Scenario {
	return Scenario{
		Name: fmt.Sprintf("incremental/apply/n=%d", users),
		Params: map[string]string{
			"users":      fmt.Sprint(users),
			"classifier": "xgb",
			"detector":   "labelprop",
			"mutations":  "1",
		},
		Prepare: func() (RunFunc, error) {
			ds, err := Dataset(users, 1.0, 42)
			if err != nil {
				return nil, err
			}
			p := core.NewPipeline(core.Config{
				Division:   core.DivisionConfig{Detector: core.DetectorLabelProp, Seed: 1},
				Classifier: &core.XGBClassifier{Seed: 1},
				Seed:       1,
			})
			res, err := p.Run(ds)
			if err != nil {
				return nil, err
			}
			// Deterministic absent pair: the mutation must be the same
			// edge every repetition and every run.
			var batch []core.Mutation
			n := graph.NodeID(ds.G.NumNodes())
			for u := graph.NodeID(0); u < n && batch == nil; u++ {
				for v := u + 1; v < n; v++ {
					if !ds.G.HasEdge(u, v) {
						batch = []core.Mutation{{
							Kind: core.MutAdd, U: u, V: v,
							Label: social.Family, Revealed: true,
						}}
						break
					}
				}
			}
			if batch == nil {
				return nil, fmt.Errorf("bench: fixture graph is complete")
			}
			return func(m *M) error {
				_, newRes, stats, err := p.ApplyMutations(ds, res, batch)
				if err != nil {
					return err
				}
				if newRes.Edges.Len() != res.Edges.Len()+1 {
					return fmt.Errorf("bench: apply produced %d predictions, want %d",
						newRes.Edges.Len(), res.Edges.Len()+1)
				}
				m.RecordPhase("apply", stats.Duration)
				return nil
			}, nil
		},
	}
}

// IncrementalApplySeededScenario is a single-edge add under a local
// detector (Clauset), where Stage I re-divides the dirty egos by seeded
// replay — stored grows whose scanned sets the mutation cannot have reached
// are reused verbatim, and only the rest re-grow. It tracks that path's cost
// over time and asserts it engages (SeededEgos > 0). It is not comparable
// with incremental/apply, which runs label propagation: the gap between the
// two rows is the detectors', not what replay saves. The like-for-like pair
// — replay against a full re-division of the same dirty sets — is
// BenchmarkStageISeededVsFull in internal/core.
func IncrementalApplySeededScenario(users int) Scenario {
	return Scenario{
		Name: fmt.Sprintf("incremental/apply-seeded/n=%d", users),
		Params: map[string]string{
			"users":      fmt.Sprint(users),
			"classifier": "xgb",
			"detector":   "clauset",
			"mutations":  "1",
		},
		Prepare: func() (RunFunc, error) {
			ds, err := Dataset(users, 1.0, 42)
			if err != nil {
				return nil, err
			}
			p := core.NewPipeline(core.Config{
				Division:   core.DivisionConfig{Detector: core.DetectorClauset, Seed: 1},
				Classifier: &core.XGBClassifier{Seed: 1},
				Seed:       1,
			})
			res, err := p.Run(ds)
			if err != nil {
				return nil, err
			}
			// Deterministic absent pair WITH common neighbors: the
			// endpoints always fall back to full re-division (their ego
			// member sets change), so the seeded path only shows up on
			// the common neighbors — the bystander egos whose member
			// sets survived the mutation.
			var batch []core.Mutation
			n := graph.NodeID(ds.G.NumNodes())
			for u := graph.NodeID(0); u < n && batch == nil; u++ {
				for v := u + 1; v < n && batch == nil; v++ {
					if ds.G.HasEdge(u, v) {
						continue
					}
					for _, w := range ds.G.Neighbors(u) {
						if ds.G.HasEdge(v, w) {
							batch = []core.Mutation{{
								Kind: core.MutAdd, U: u, V: v,
								Label: social.Family, Revealed: true,
							}}
							break
						}
					}
				}
			}
			if batch == nil {
				return nil, fmt.Errorf("bench: fixture graph has no absent pair with common neighbors")
			}
			return func(m *M) error {
				_, newRes, stats, err := p.ApplyMutations(ds, res, batch)
				if err != nil {
					return err
				}
				if newRes.Edges.Len() != res.Edges.Len()+1 {
					return fmt.Errorf("bench: apply produced %d predictions, want %d",
						newRes.Edges.Len(), res.Edges.Len()+1)
				}
				if stats.SeededEgos == 0 {
					return fmt.Errorf("bench: seeded apply replayed no egos (stats = %+v)", stats)
				}
				m.RecordPhase("apply", stats.Duration)
				return nil
			}, nil
		},
	}
}

// trainedArtifacts memoizes trainedArtifact per population size, like the
// Dataset fixture cache: artifact bytes are deterministic for the fixed
// seeds, and both artifact scenarios share one configuration, so the
// suite pays for training once, not once per scenario.
var (
	trainedArtifactsMu sync.Mutex
	trainedArtifacts   = map[int][]byte{}
)

// trainedArtifact trains the standard xgb/labelprop pipeline on a fixture
// dataset and returns the serialized artifact — the shared setup of the
// artifact scenarios.
func trainedArtifact(users int) ([]byte, error) {
	trainedArtifactsMu.Lock()
	defer trainedArtifactsMu.Unlock()
	if data, ok := trainedArtifacts[users]; ok {
		return data, nil
	}
	data, err := buildTrainedArtifact(users)
	if err != nil {
		return nil, err
	}
	trainedArtifacts[users] = data
	return data, nil
}

func buildTrainedArtifact(users int) ([]byte, error) {
	ds, err := Dataset(users, 1.0, 42)
	if err != nil {
		return nil, err
	}
	p := core.NewPipeline(core.Config{
		Division:   core.DivisionConfig{Detector: core.DetectorLabelProp, Seed: 1},
		Classifier: &core.XGBClassifier{Seed: 1},
		Seed:       1,
	})
	res, err := p.Run(ds)
	if err != nil {
		return nil, err
	}
	ex, err := res.Export()
	if err != nil {
		return nil, err
	}
	art, err := artifact.New(ds.G, ex, 42)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := art.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ArtifactLoadScenario measures the full offline→online restore path:
// deserialize a trained snapshot (header + checksums + every section) and
// rebuild a ready-to-serve core.Result via RunFromArtifact. Training runs
// once in Prepare; the timed body touches no learning code, so this
// number is what a process restart actually costs once artifacts exist.
func ArtifactLoadScenario(users int) Scenario {
	return Scenario{
		Name: fmt.Sprintf("artifact/load/n=%d", users),
		Params: map[string]string{
			"users":      fmt.Sprint(users),
			"classifier": "xgb",
			"detector":   "labelprop",
		},
		Prepare: func() (RunFunc, error) {
			data, err := trainedArtifact(users)
			if err != nil {
				return nil, err
			}
			return func(m *M) error {
				art, err := artifact.Load(bytes.NewReader(data))
				if err != nil {
					return err
				}
				if _, err := art.Graph(); err != nil {
					return err
				}
				ex, err := art.Export()
				if err != nil {
					return err
				}
				res, err := core.NewPipeline(core.Config{}).RunFromArtifact(ex)
				if err != nil {
					return err
				}
				if res.Edges.Len() == 0 {
					return fmt.Errorf("bench: loaded artifact has no predictions")
				}
				return nil
			}, nil
		},
	}
}

// ServeColdStartScenario measures serve.New cold-starting from an
// artifact file — the restart path the artifact store exists for. Compare
// against pipeline/xgb at the same n: the gap is the training time a
// snapshot-backed restart no longer pays.
func ServeColdStartScenario(users int) Scenario {
	return Scenario{
		Name: fmt.Sprintf("serve/coldstart/n=%d", users),
		Params: map[string]string{
			"users":      fmt.Sprint(users),
			"classifier": "xgb",
			"detector":   "labelprop",
		},
		Prepare: func() (RunFunc, error) {
			data, err := trainedArtifact(users)
			if err != nil {
				return nil, err
			}
			// Scenarios have no teardown hook, so use a fixed per-config
			// path that later runs overwrite rather than leaking a fresh
			// temp dir per invocation. Write-then-rename keeps the swap
			// atomic, so a concurrent bench run never reads a torn file.
			path := filepath.Join(os.TempDir(), fmt.Sprintf("locec-bench-coldstart-n%d.locec", users))
			tmp, err := os.CreateTemp(os.TempDir(), "locec-bench-coldstart-*")
			if err != nil {
				return nil, err
			}
			if _, err := tmp.Write(data); err != nil {
				_ = tmp.Close()
				_ = os.Remove(tmp.Name())
				return nil, err
			}
			if err := tmp.Close(); err != nil {
				_ = os.Remove(tmp.Name())
				return nil, err
			}
			if err := os.Rename(tmp.Name(), path); err != nil {
				_ = os.Remove(tmp.Name())
				return nil, err
			}
			return func(m *M) error {
				s, err := serve.New(serve.Config{Artifact: path, Logger: discardLogger()})
				if err != nil {
					return err
				}
				if s.Version() != 1 {
					return fmt.Errorf("bench: cold-start snapshot version %d", s.Version())
				}
				return nil
			}, nil
		},
	}
}

// discardLogger silences serve's request logging during benchmarks.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// benchServer builds a serving-layer instance on a fixture dataset. The
// fast XGBoost + label-propagation configuration keeps snapshot builds
// cheap; lookups exercise the same handler stack regardless.
func benchServer(users int) (*serve.Server, error) {
	return serve.New(serve.Config{
		Users:    users,
		Survey:   surveyFraction,
		Seed:     7,
		Variant:  "xgb",
		Detector: "labelprop",
		Source:   Source(users, 1.0),
		Logger:   discardLogger(),
	})
}

// edgePaths collects up to want /v1/edge request paths from the live
// snapshot's friendships.
func edgePaths(s *serve.Server, want int) []string {
	paths := make([]string, 0, want)
	s.Dataset().G.ForEachEdge(func(u, v graph.NodeID) {
		if len(paths) < want {
			paths = append(paths, fmt.Sprintf("/v1/edge?u=%d&v=%d", u, v))
		}
	})
	return paths
}

// ServeLookupScenario measures single-edge lookup through the full
// handler stack: one repetition issues `requests` GET /v1/edge calls and
// records each call's latency, so the report carries p50/p95/p99 for the
// serving hot path.
func ServeLookupScenario(users, requests int) Scenario {
	return Scenario{
		Name: fmt.Sprintf("serve/edge-lookup/n=%d", users),
		Params: map[string]string{
			"users":    fmt.Sprint(users),
			"requests": fmt.Sprint(requests),
		},
		Prepare: func() (RunFunc, error) {
			s, err := benchServer(users)
			if err != nil {
				return nil, err
			}
			h := s.Handler()
			paths := edgePaths(s, 256)
			if len(paths) == 0 {
				return nil, fmt.Errorf("bench: snapshot has no edges")
			}
			return func(m *M) error {
				m.SetOps(requests)
				for i := 0; i < requests; i++ {
					req := httptest.NewRequest(http.MethodGet, paths[i%len(paths)], nil)
					rec := httptest.NewRecorder()
					t0 := time.Now()
					h.ServeHTTP(rec, req)
					m.RecordLatency(time.Since(t0))
					if rec.Code != http.StatusOK {
						return fmt.Errorf("bench: lookup status %d", rec.Code)
					}
				}
				return nil
			}, nil
		},
	}
}

// ServeClassifyScenario measures POST /v1/classify batch throughput with
// the snapshot-keyed LRU warm (every identical batch after the first is a
// cache hit — the serving layer's steady state for repeated batches).
func ServeClassifyScenario(users, batch, requests int) Scenario {
	return Scenario{
		Name: fmt.Sprintf("serve/classify/n=%d/batch=%d", users, batch),
		Params: map[string]string{
			"users":    fmt.Sprint(users),
			"batch":    fmt.Sprint(batch),
			"requests": fmt.Sprint(requests),
		},
		Prepare: func() (RunFunc, error) {
			s, err := benchServer(users)
			if err != nil {
				return nil, err
			}
			h := s.Handler()
			var edges []string
			s.Dataset().G.ForEachEdge(func(u, v graph.NodeID) {
				if len(edges) < batch {
					edges = append(edges, fmt.Sprintf(`{"u":%d,"v":%d}`, u, v))
				}
			})
			if len(edges) == 0 {
				return nil, fmt.Errorf("bench: snapshot has no edges")
			}
			body := `{"edges":[` + strings.Join(edges, ",") + `]}`
			return func(m *M) error {
				m.SetOps(requests)
				for i := 0; i < requests; i++ {
					req := httptest.NewRequest(http.MethodPost, "/v1/classify", strings.NewReader(body))
					rec := httptest.NewRecorder()
					t0 := time.Now()
					h.ServeHTTP(rec, req)
					m.RecordLatency(time.Since(t0))
					if rec.Code != http.StatusOK {
						return fmt.Errorf("bench: classify status %d", rec.Code)
					}
				}
				return nil
			}, nil
		},
	}
}
