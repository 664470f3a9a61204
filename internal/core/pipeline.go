package core

import (
	"time"

	"locec/internal/graph"
	"locec/internal/logreg"
	"locec/internal/social"
)

// Config assembles a full LoCEC pipeline.
type Config struct {
	// Division tunes Run's Phase I. The result records it, and later
	// epochs re-divide by the result's copy (Result.Division).
	Division DivisionConfig
	// Classifier is the Phase II model; nil defaults to a CNNClassifier
	// with paper parameters (k = 20).
	Classifier CommunityClassifier
	// Combiner tunes the Phase III logistic regression.
	Combiner logreg.Config
	// AgreementRule replaces the Phase III logistic regression with the
	// naive rule the paper discusses before introducing LR: if both
	// endpoint communities agree on a type, use it; otherwise take the
	// tightness-weighted argmax of the two probability vectors. An
	// ablation — not the paper's shipped combiner.
	AgreementRule bool
	// Seed seeds the combiner when Combiner.Seed is zero.
	Seed int64
}

// PhaseTimes records wall-clock durations per phase (Table VI's columns).
// Phase3 splits further into the combiner's two sub-phases, which sum to
// Phase3 up to the clock reads between them.
type PhaseTimes struct {
	Training time.Duration // Phase II model training
	Phase1   time.Duration // division: ego networks + community detection
	Phase2   time.Duration // aggregation: features + community classification
	Phase3   time.Duration // combination: edge features + LR + prediction

	CombinerTrain   time.Duration // Phase III sub-phase: LR training
	CombinerPredict time.Duration // Phase III sub-phase: edge prediction + store
}

// Total sums all phases including training.
func (p PhaseTimes) Total() time.Duration {
	return p.Training + p.Phase1 + p.Phase2 + p.Phase3
}

// Map returns the per-phase durations keyed by the stable machine-readable
// phase names shared by /v1/stats and the artifact meta's `phase_ns`.
// Changing a key is a schema change for both.
func (p PhaseTimes) Map() map[string]time.Duration {
	return map[string]time.Duration{
		"training":         p.Training,
		"division":         p.Phase1,
		"aggregation":      p.Phase2,
		"combination":      p.Phase3,
		"combiner_train":   p.CombinerTrain,
		"combiner_predict": p.CombinerPredict,
	}
}

// Result is a full pipeline run output.
type Result struct {
	// Egos holds Phase I output per node.
	Egos []*EgoResult
	// Communities is the flat list of local communities Phase II
	// classified in the call that built this result: Run and RunFrozen
	// fill it; ApplyMutations and RunFromArtifact leave it nil. Egos is
	// the authority on what a result holds — count with NumCommunities.
	Communities []*LocalCommunity
	// Edges holds every predicted edge's label and class-probability
	// vector in one flat store sorted by canonical edge key (nil before
	// Phase III runs). Use its Label/Probs lookups or the Result's
	// PredictedLabelOK wrapper.
	Edges *EdgeStore
	// Times records per-phase durations.
	Times PhaseTimes
	// ClassifierName echoes the Phase II model used.
	ClassifierName string
	// Classifier is the trained Phase II model instance. It can classify
	// further communities and, when it implements ModelPersister, its
	// weights travel with Export into the artifact store.
	Classifier CommunityClassifier
	// Combiner is the trained Phase III logistic regression (nil when the
	// agreement-rule ablation replaced it).
	Combiner *logreg.Model
	// Division is the Phase I rule that divided Egos. Every later epoch
	// re-divides dirty egos by it, as it does with the frozen models.
	Division DivisionConfig
}

// PredictedLabelOK returns the predicted label for the edge {u,v} and
// whether the edge exists in the result at all — the lookup form that
// never fabricates a label for an unknown edge.
func (r *Result) PredictedLabelOK(u, v graph.NodeID) (social.Label, bool) {
	l, ok := r.Edges.Label((graph.Edge{U: u, V: v}).Key())
	if !ok {
		return social.Unlabeled, false
	}
	return l, true
}

// Pipeline is a configured LoCEC instance.
type Pipeline struct {
	cfg Config
}

// NewPipeline validates and builds a pipeline.
func NewPipeline(cfg Config) *Pipeline {
	if cfg.Classifier == nil {
		cfg.Classifier = &CNNClassifier{K: 20, Seed: cfg.Seed}
	}
	if cfg.Combiner.Classes == 0 {
		cfg.Combiner.Classes = social.NumLabels
	}
	if cfg.Combiner.Seed == 0 {
		cfg.Combiner.Seed = cfg.Seed + 101
	}
	return &Pipeline{cfg: cfg}
}

// Run executes the three phases on the dataset and labels every edge.
// Training data comes exclusively from ds.Revealed; the caller controls
// train/test isolation by hiding labels before the run.
//
// The body is the staged composition of stages.go — Divide,
// TrainClassifier, ClassifyCommunities, TrainCombiner, then
// RecombineEdges over every edge — each phase timed into res.Times.
func (p *Pipeline) Run(ds *social.Dataset) (*Result, error) {
	res := &Result{ClassifierName: p.cfg.Classifier.Name(), Classifier: p.cfg.Classifier, Division: p.cfg.Division}

	// ---- Phase I: division -------------------------------------------
	t0 := time.Now()
	res.Egos = Divide(ds, p.cfg.Division)
	res.Times.Phase1 = time.Since(t0)
	for _, er := range res.Egos {
		res.Communities = append(res.Communities, er.Comms...)
	}

	// ---- Phase II: aggregation --------------------------------------
	t0 = time.Now()
	if err := p.TrainClassifier(ds, res.Communities); err != nil {
		return nil, err
	}
	res.Times.Training = time.Since(t0)

	t0 = time.Now()
	p.ClassifyCommunities(ds, res.Communities)
	res.Times.Phase2 = time.Since(t0)

	// ---- Phase III: combination -------------------------------------
	t0 = time.Now()
	if err := p.TrainCombiner(ds, res); err != nil {
		return nil, err
	}
	res.Times.CombinerTrain = time.Since(t0)
	t1 := time.Now()
	if err := p.RecombineEdges(res, ds.G.Edges()); err != nil {
		return nil, err
	}
	res.Times.CombinerPredict = time.Since(t1)
	res.Times.Phase3 = time.Since(t0)
	return res, nil
}

// Argmax returns the index of the largest value (0 for empty input).
// Shared by the combiner, the public Result views and the serving layer so
// tie-breaking stays consistent everywhere.
func Argmax(x []float64) int {
	best, bi := -1.0, 0
	for i, v := range x {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// NumCommunities returns the number of local communities across all ego
// networks.
func (r *Result) NumCommunities() int {
	n := 0
	for _, er := range r.Egos {
		n += len(er.Comms)
	}
	return n
}

// CommunitySizes returns the size of every detected local community, in
// ego order — Fig. 10(a)'s distribution.
func (r *Result) CommunitySizes() []float64 {
	out := make([]float64, 0, r.NumCommunities())
	for _, er := range r.Egos {
		for _, c := range er.Comms {
			out = append(out, float64(len(c.Members)))
		}
	}
	return out
}
