package core

import (
	"math"
	"math/rand"
	"testing"

	"locec/internal/eval"
	"locec/internal/graph"
	"locec/internal/logreg"
	"locec/internal/social"
	"locec/internal/wechat"
)

func combineFixture(t *testing.T) *social.Dataset {
	t.Helper()
	net, err := wechat.Generate(wechat.DefaultConfig(80, 3))
	if err != nil {
		t.Fatal(err)
	}
	net.RunSurvey(0.4, 11)
	return net.Dataset
}

// TestCombineStandaloneMatchesRun re-runs Phase III alone — TrainCombiner
// then RecombineEdges over every edge — on a finished pipeline result and
// checks the parallel chunked combiner reproduces the full run's
// predictions and probabilities exactly.
func TestCombineStandaloneMatchesRun(t *testing.T) {
	ds := combineFixture(t)
	p := NewPipeline(Config{
		Division:   DivisionConfig{Detector: DetectorLabelProp, Seed: 1},
		Classifier: &XGBClassifier{Seed: 1},
		Seed:       1,
	})
	res, err := p.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	redo := &Result{Egos: res.Egos, Communities: res.Communities}
	if err := p.TrainCombiner(ds, redo); err != nil {
		t.Fatal(err)
	}
	if err := p.RecombineEdges(redo, ds.G.Edges()); err != nil {
		t.Fatal(err)
	}
	if redo.Edges.Len() != res.Edges.Len() {
		t.Fatalf("prediction count %d, want %d", redo.Edges.Len(), res.Edges.Len())
	}
	assertStoresEqual(t, "recombined", redo.Edges, res.Edges)
}

// TestCombineProbabilitiesWellFormed checks every edge got a probability
// vector summing to 1 and a prediction matching its argmax — on both the
// LR combiner and the agreement-rule ablation (which share the flat
// storage and fan-out).
func TestCombineProbabilitiesWellFormed(t *testing.T) {
	ds := combineFixture(t)
	for _, agreement := range []bool{false, true} {
		p := NewPipeline(Config{
			Division:      DivisionConfig{Detector: DetectorLabelProp, Seed: 1},
			Classifier:    &XGBClassifier{Seed: 1},
			AgreementRule: agreement,
			Seed:          1,
		})
		res, err := p.Run(ds)
		if err != nil {
			t.Fatal(err)
		}
		if res.Edges.Len() != ds.G.NumEdges() {
			t.Fatalf("agreement=%v: %d predictions for %d edges", agreement, res.Edges.Len(), ds.G.NumEdges())
		}
		for _, k := range res.Edges.Keys() {
			l, probs, _ := res.Edges.Lookup(k)
			sum := 0.0
			for _, v := range probs {
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 && sum != 0 {
				t.Fatalf("agreement=%v edge %d: probs sum %v", agreement, k, sum)
			}
			if !agreement {
				if got, want := l, social.Label(Argmax(probs)); got != want {
					t.Fatalf("agreement=%v edge %d: prediction %v, argmax %v", agreement, k, got, want)
				}
			}
		}
	}
}

// capFit is the plainest optimiser of the paper's Eq. 4 objective: softmax
// regression by mini-batch SGD on the raw features at a fixed step for a
// fixed number of epochs, every row trained on, nothing held out — what the
// combiner's fit was before it learned to stop. The stopped fit answers to
// the objective, not to this trajectory, so it is held to this one's
// quality, not to its weights.
func capFit(X [][]float64, y []int, classes, epochs int, seed int64) *logreg.Model {
	const batch, lr = 32, 0.1
	nf := len(X[0])
	m := &logreg.Model{Classes: classes, Features: nf, W: make([]float64, classes*(nf+1))}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(X))
	grads := make([]float64, len(m.W))
	probs := make([]float64, classes)
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += batch {
			rows := idx[start:min(start+batch, len(idx))]
			clear(grads)
			for _, i := range rows {
				m.PredictProbaInto(X[i], probs)
				probs[y[i]] -= 1
				for c, g := range probs {
					w := grads[c*(nf+1) : (c+1)*(nf+1)]
					for f, v := range X[i] {
						w[f] += g * v
					}
					w[nf] += g
				}
			}
			for i, g := range grads {
				m.W[i] -= lr / float64(len(rows)) * g
			}
		}
	}
	return m
}

// TestStoppedCombinerKeepsCapQuality pins Phase III quality in tier-1: at
// n=1000 with XGB the combiner's validation-stopped fit must stop well
// short of its cap and still label the unrevealed edges within 0.01
// macro-F1 of a fit driven through all 100 epochs.
func TestStoppedCombinerKeepsCapQuality(t *testing.T) {
	net, err := wechat.Generate(wechat.DefaultConfig(1000, 42))
	if err != nil {
		t.Fatal(err)
	}
	net.RunSurvey(0.4, 49)
	ds := net.Dataset
	p := NewPipeline(Config{
		Division:   DivisionConfig{Detector: DetectorLabelProp, Seed: 1},
		Classifier: &XGBClassifier{Seed: 1},
		Seed:       1,
	})
	res, err := p.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	const epochCap = 100 // logreg's default Config.Epochs
	if got := res.Combiner.EpochsRun; got < 1 || got > epochCap/2 {
		t.Fatalf("combiner ran %d epochs of a cap of %d: the stop did not engage", got, epochCap)
	}

	labeled := ds.LabeledEdges()
	X := make([][]float64, len(labeled))
	y := make([]int, len(labeled))
	for i, k := range labeled {
		e := graph.EdgeFromKey(k)
		X[i] = AppendEdgeFeatures(nil, res.Egos, e.U, e.V)
		y[i] = int(ds.TrueLabel(k))
	}
	capped := capFit(X, y, social.NumLabels, epochCap, 1)

	var truth, stoppedPred, cappedPred []social.Label
	ds.G.ForEachEdge(func(u, v graph.NodeID) {
		k := (graph.Edge{U: u, V: v}).Key()
		if l := ds.TrueLabel(k); l.Valid() && !ds.IsRevealed(k) {
			truth = append(truth, l)
			pred, _ := res.PredictedLabelOK(u, v)
			stoppedPred = append(stoppedPred, pred)
			cappedPred = append(cappedPred, social.Label(capped.Predict(AppendEdgeFeatures(nil, res.Egos, u, v))))
		}
	})
	stoppedF1 := eval.Evaluate(truth, stoppedPred).MacroF1()
	cappedF1 := eval.Evaluate(truth, cappedPred).MacroF1()
	t.Logf("%d rows, stopped after %d epochs: macro-F1 %.4f; %d epochs: %.4f", len(X), res.Combiner.EpochsRun, stoppedF1, epochCap, cappedF1)
	if math.Abs(stoppedF1-cappedF1) > 0.01 {
		t.Fatalf("stopped fit macro-F1 %.4f, %d-epoch fit %.4f: more than 0.01 apart", stoppedF1, epochCap, cappedF1)
	}
}
