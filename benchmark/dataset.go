package main

import (
	"fmt"

	"locec/internal/core"
	"locec/internal/eval"
	"locec/internal/graph"
	"locec/internal/logreg"
	"locec/internal/social"
	"locec/internal/wechat"
)

// surveyFraction is the revealed-label share of every dataset, the paper's
// ~40% survey coverage; the other edges are what macro_f1 is scored on.
const surveyFraction = 0.4

// datasetSpec sizes one synthetic WeChat-like dataset. Density multiplies
// every intra-circle edge probability, closure probability and the
// random-edge rate (1 = the calibrated default), leaving circle sizes
// alone, so it moves ego-network size without moving the population.
type datasetSpec struct {
	Users   int     `json:"users"`
	Density float64 `json:"density"`
}

// dataSeed generates the population, its friendships, features and true
// labels and picks the 40% of labels the survey reveals. It does not follow
// the run's seed: on the build box macro-F1 of batch_cnn_400 moved by 3%
// (quartile distance over ten surveys) and its run time by 11%, which no
// bound could sit above, while a change to the learner moves both on a
// fixed dataset just as well. The run's seed drives request and mutation
// schedules, where the program's behaviour depends on the order of inputs.
const dataSeed = 42

// generate builds the dataset and surveys it.
func generate(spec datasetSpec) (*social.Dataset, error) {
	cfg := wechat.DefaultConfig(spec.Users, dataSeed)
	if d := spec.Density; d > 0 && d != 1 {
		for _, p := range []*float64{
			&cfg.FamilyDensity, &cfg.WorkDensity, &cfg.PastWorkDensity,
			&cfg.SchoolDensity, &cfg.HobbyDensity, &cfg.WorkClosure,
			&cfg.PastWorkClosure, &cfg.SchoolClosure, &cfg.HobbyClosure,
		} {
			*p = min(*p*d, 1)
		}
		cfg.RandomEdgesPerUser *= d
	}
	net, err := wechat.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate n=%d: %w", spec.Users, err)
	}
	net.RunSurvey(surveyFraction, dataSeed+7)
	return net.Dataset, nil
}

// pipelineSpec is one pipeline configuration of the benchmark.
type pipelineSpec struct {
	Detector string `json:"detector"`
	Variant  string `json:"variant"` // "xgb" or "cnn"
}

// pipelineSeed seeds division, classifier and combiner of every benchmark
// pipeline. serve restores a mutable artifact under the seed stamped into
// it, so fixtures stamp this one too.
const pipelineSeed = 1

// combinerConfig is the Phase III configuration of every benchmark
// pipeline, spelt out (it is what core.NewPipeline derives from the seed) so
// that the pipeline and the traced run's replay of logreg.Train are handed
// the same value. Epochs, batch size and learning rate stay logreg's own.
var combinerConfig = logreg.Config{Classes: social.NumLabels, Seed: pipelineSeed + 101}

func (s pipelineSpec) divisionConfig() (core.DivisionConfig, error) {
	det, err := core.ParseDetector(s.Detector)
	if err != nil {
		return core.DivisionConfig{}, err
	}
	return core.DivisionConfig{Detector: det, Seed: pipelineSeed}, nil
}

func (s pipelineSpec) classifier() core.CommunityClassifier {
	if s.Variant == "cnn" {
		return &core.CNNClassifier{K: 20, Seed: pipelineSeed}
	}
	return &core.XGBClassifier{Seed: pipelineSeed}
}

// build returns a fresh, untrained pipeline with the division config and
// classifier it was made of; classifiers keep their trained model, so
// every run needs its own.
func (s pipelineSpec) build() (*core.Pipeline, core.DivisionConfig, core.CommunityClassifier, error) {
	div, err := s.divisionConfig()
	if err != nil {
		return nil, div, nil, err
	}
	cl := s.classifier()
	return core.NewPipeline(core.Config{Division: div, Classifier: cl, Combiner: combinerConfig, Seed: pipelineSeed}), div, cl, nil
}

// heldOutMacroF1 scores a finished run on every edge whose ground truth is
// a predictable class and was not revealed to training. It also reports
// how many graph edges have no prediction at all (must be 0).
func heldOutMacroF1(ds *social.Dataset, res *core.Result) (f1 float64, missing int) {
	var truth, pred []social.Label
	ds.G.ForEachEdge(func(u, v graph.NodeID) {
		label, ok := res.PredictedLabelOK(u, v)
		if !ok {
			missing++
			return
		}
		k := (graph.Edge{U: u, V: v}).Key()
		if t := ds.TrueLabels[k]; t.Valid() && !ds.Revealed[k] {
			truth = append(truth, t)
			pred = append(pred, label)
		}
	})
	return eval.Evaluate(truth, pred).MacroF1(), missing
}
