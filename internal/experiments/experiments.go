// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) on the synthetic WeChat-like substrate. Each
// experiment is a plain function returning structured results plus a
// paper-style formatted rendering, so the CLI (cmd/locec-experiments), the
// benchmark suite (bench_test.go) and the tests share one implementation.
//
// Absolute numbers differ from the paper — the substrate is a laptop-scale
// synthetic network, not the WeChat production graph — but each experiment
// preserves the published *shape*: method orderings, rough factors and
// crossovers. The paper-vs-measured ledger for all of them is ROADMAP item
// 5(b), not yet written.
package experiments

import (
	"fmt"
	"strings"

	"locec/internal/baselines"
	"locec/internal/core"
	"locec/internal/eval"
	"locec/internal/gbdt"
	"locec/internal/social"
	"locec/internal/wechat"
)

// Options sizes the experiments. Quick mode trades fidelity for runtime
// (fewer sweep points, smaller CNN) and is what the benchmarks use.
type Options struct {
	// Users is the synthetic population size.
	Users int
	// Seed drives every generator and learner.
	Seed int64
	// Quick shrinks sweeps and training budgets.
	Quick bool

	// CNN hyperparameters (zero = defaults tuned for the experiment size).
	K, CNNFilters, CNNHidden, CNNEpochs int
}

// Default returns the standard experiment configuration.
func Default() Options {
	// K = 16 covers virtually all of this substrate's communities (90%
	// have at most 8 members), the same coverage point the paper's k = 20
	// hits on WeChat's larger ego networks (ledger: ROADMAP item 5(b), not
	// yet written).
	return Options{Users: 1200, Seed: 42, K: 16, CNNFilters: 6, CNNHidden: 32, CNNEpochs: 14}
}

// Quick returns a fast configuration for benchmarks and smoke tests.
func Quick() Options {
	return Options{Users: 400, Seed: 42, Quick: true, K: 10, CNNFilters: 4, CNNHidden: 16, CNNEpochs: 10}
}

func (o *Options) fill() {
	if o.Users == 0 {
		o.Users = 1200
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.K == 0 {
		o.K = 16
	}
	if o.CNNFilters == 0 {
		o.CNNFilters = 4
	}
	if o.CNNHidden == 0 {
		o.CNNHidden = 24
	}
	if o.CNNEpochs == 0 {
		o.CNNEpochs = 8
	}
}

// newNetwork generates the base network for an experiment.
func newNetwork(opt Options) (*wechat.Network, error) {
	opt.fill()
	return wechat.Generate(wechat.DefaultConfig(opt.Users, opt.Seed))
}

// surveyedNetwork generates the base network and reveals ~40% of edge
// labels via the survey (the paper's sub-graph setting).
func surveyedNetwork(opt Options) (*wechat.Network, error) {
	net, err := newNetwork(opt)
	if err != nil {
		return nil, err
	}
	net.RunSurvey(0.40, opt.Seed+1)
	return net, nil
}

// holdOut hides the test split from learners.
func holdOut(ds *social.Dataset, test []uint64) {
	for _, k := range test {
		ds.SetRevealed(k, false)
	}
}

// truthsOf looks up ground truth for edge keys.
func truthsOf(ds *social.Dataset, keys []uint64) []social.Label {
	out := make([]social.Label, len(keys))
	for i, k := range keys {
		out[i] = ds.TrueLabel(k)
	}
	return out
}

// locecAdapter exposes the LoCEC pipeline through the uniform
// EdgeClassifier contract used for Tables IV and Fig. 11.
type locecAdapter struct {
	name string
	cfg  core.Config
	res  *core.Result
}

// Name implements baselines.EdgeClassifier.
func (a *locecAdapter) Name() string { return a.name }

// Fit implements baselines.EdgeClassifier.
func (a *locecAdapter) Fit(ds *social.Dataset) error {
	res, err := core.NewPipeline(a.cfg).Run(ds)
	if err != nil {
		return err
	}
	a.res = res
	return nil
}

// PredictEdges implements baselines.EdgeClassifier.
func (a *locecAdapter) PredictEdges(_ *social.Dataset, keys []uint64) []social.Label {
	out := make([]social.Label, len(keys))
	for i, k := range keys {
		if l, ok := a.res.Edges.Label(k); ok {
			out[i] = l
		} else {
			out[i] = social.Unlabeled
		}
	}
	return out
}

// Result exposes the pipeline output after Fit (nil before).
func (a *locecAdapter) Result() *core.Result { return a.res }

// newLoCECCNN builds the LoCEC-CNN adapter for the options.
func newLoCECCNN(opt Options) *locecAdapter {
	opt.fill()
	return &locecAdapter{
		name: "LoCEC-CNN",
		cfg: core.Config{
			Classifier: &core.CNNClassifier{
				K: opt.K, Filters: opt.CNNFilters, Hidden: opt.CNNHidden,
				Epochs: opt.CNNEpochs, Seed: opt.Seed,
			},
			Seed: opt.Seed,
		},
	}
}

// newLoCECXGB builds the LoCEC-XGB adapter for the options.
func newLoCECXGB(opt Options) *locecAdapter {
	opt.fill()
	rounds := 25
	if opt.Quick {
		rounds = 10
	}
	return &locecAdapter{
		name: "LoCEC-XGB",
		cfg: core.Config{
			Classifier: &core.XGBClassifier{
				Config: gbdt.Config{Rounds: rounds, MaxDepth: 4, Seed: opt.Seed},
				Seed:   opt.Seed,
			},
			Seed: opt.Seed,
		},
	}
}

// allClassifiers builds the five compared methods in Table IV order.
func allClassifiers(opt Options) []baselines.EdgeClassifier {
	opt.fill()
	xgbRounds := 25
	econEpochs := 12
	if opt.Quick {
		xgbRounds = 10
		econEpochs = 6
	}
	return []baselines.EdgeClassifier{
		&baselines.ProbWP{Hashes: 20, TopK: 10, Seed: opt.Seed},
		&baselines.Economix{Seed: opt.Seed, Epochs: econEpochs},
		&baselines.XGBoostEdge{Config: gbdt.Config{Rounds: xgbRounds, MaxDepth: 4, Seed: opt.Seed}},
		newLoCECXGB(opt),
		newLoCECCNN(opt),
	}
}

// evaluateOn fits a classifier on the currently revealed labels and scores
// it on the held-out keys.
func evaluateOn(c baselines.EdgeClassifier, ds *social.Dataset, test []uint64) (eval.Report, error) {
	if err := c.Fit(ds); err != nil {
		return eval.Report{}, fmt.Errorf("%s: %w", c.Name(), err)
	}
	preds := c.PredictEdges(ds, test)
	return eval.Evaluate(truthsOf(ds, test), preds), nil
}

// formatMetricTable renders method × class rows the way Tables IV/V do.
func formatMetricTable(title string, rows []MethodReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s %-16s %10s %10s %10s\n", "Algorithm", "Community Type", "Precision", "Recall", "F1-score")
	for _, mr := range rows {
		for c := 0; c < social.NumLabels; c++ {
			m := mr.Report.PerClass[c]
			fmt.Fprintf(&b, "%-12s %-16s %10.3f %10.3f %10.3f\n",
				mr.Method, social.Label(c).String(), m.Precision, m.Recall, m.F1)
		}
		o := mr.Report.Overall
		fmt.Fprintf(&b, "%-12s %-16s %10.3f %10.3f %10.3f\n", mr.Method, "Overall", o.Precision, o.Recall, o.F1)
	}
	return b.String()
}

// MethodReport pairs a method name with its evaluation report.
type MethodReport struct {
	Method string
	Report eval.Report
}

// gbdtConfig builds the GBDT configuration used by the XGB variants.
func gbdtConfig(rounds int, seed int64) gbdt.Config {
	return gbdt.Config{Rounds: rounds, MaxDepth: 4, Seed: seed}
}
