package baselines

import (
	"testing"

	"locec/internal/eval"
	"locec/internal/social"
	"locec/internal/wechat"
)

// testNet builds a small surveyed network shared by the baseline tests.
func testNet(t *testing.T) (*wechat.Network, []uint64, []uint64) {
	t.Helper()
	net, err := wechat.Generate(wechat.DefaultConfig(600, 42))
	if err != nil {
		t.Fatal(err)
	}
	net.RunSurvey(0.4, 7)
	labeled := net.Dataset.LabeledEdges()
	train, test := eval.Split(labeled, 0.8, 3)
	// Hide the test labels from learners.
	for _, k := range test {
		net.Dataset.SetRevealed(k, false)
	}
	return net, train, test
}

func truthsOf(net *wechat.Network, keys []uint64) []social.Label {
	out := make([]social.Label, len(keys))
	for i, k := range keys {
		out[i] = net.Dataset.TrueLabel(k)
	}
	return out
}

func runClassifier(t *testing.T, c EdgeClassifier, net *wechat.Network, test []uint64) eval.Report {
	t.Helper()
	if err := c.Fit(net.Dataset); err != nil {
		t.Fatalf("%s.Fit: %v", c.Name(), err)
	}
	preds := c.PredictEdges(net.Dataset, test)
	return eval.Evaluate(truthsOf(net, test), preds)
}

func TestProbWPBeatsChance(t *testing.T) {
	net, _, test := testNet(t)
	rep := runClassifier(t, &ProbWP{Seed: 1}, net, test)
	if rep.Overall.F1 < 0.45 {
		t.Fatalf("ProbWP overall F1 = %.3f, want >= 0.45\n%s", rep.Overall.F1, rep)
	}
}

func TestProbWPDegradesWithFewLabels(t *testing.T) {
	net, _, test := testNet(t)
	dense := runClassifier(t, &ProbWP{Seed: 1}, net, test)
	// Keep only ~10% of the already-revealed labels.
	net.SubsampleRevealed(0.10, 5)
	sparse := runClassifier(t, &ProbWP{Seed: 1}, net, test)
	if sparse.Overall.F1 >= dense.Overall.F1 {
		t.Fatalf("label propagation should degrade with fewer labels: dense %.3f sparse %.3f",
			dense.Overall.F1, sparse.Overall.F1)
	}
}

func TestEconomixBeatsChance(t *testing.T) {
	net, _, test := testNet(t)
	rep := runClassifier(t, &Economix{Seed: 2, Epochs: 8}, net, test)
	if rep.Overall.F1 < 0.40 {
		t.Fatalf("Economix overall F1 = %.3f, want >= 0.40\n%s", rep.Overall.F1, rep)
	}
}

func TestXGBoostEdgeBeatsChance(t *testing.T) {
	net, _, test := testNet(t)
	rep := runClassifier(t, &XGBoostEdge{}, net, test)
	if rep.Overall.F1 < 0.40 {
		t.Fatalf("XGBoost overall F1 = %.3f, want >= 0.40\n%s", rep.Overall.F1, rep)
	}
}

func TestXGBoostRequiresLabels(t *testing.T) {
	net, _, _ := testNet(t)
	net.Dataset.Revealed = map[uint64]bool{}
	if err := (&XGBoostEdge{}).Fit(net.Dataset); err == nil {
		t.Fatal("expected error with no labels")
	}
}

func TestEconomixAbstainsOnUnknownEdge(t *testing.T) {
	net, _, _ := testNet(t)
	e := &Economix{Seed: 3, Epochs: 2}
	if err := e.Fit(net.Dataset); err != nil {
		t.Fatal(err)
	}
	preds := e.PredictEdges(net.Dataset, []uint64{^uint64(0)})
	if preds[0] != social.Unlabeled {
		t.Fatalf("expected abstention on unknown edge key, got %v", preds[0])
	}
}

func TestProbWPDeterministic(t *testing.T) {
	net, _, test := testNet(t)
	a := &ProbWP{Seed: 4}
	b := &ProbWP{Seed: 4}
	if err := a.Fit(net.Dataset); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(net.Dataset); err != nil {
		t.Fatal(err)
	}
	pa := a.PredictEdges(net.Dataset, test[:50])
	pb := b.PredictEdges(net.Dataset, test[:50])
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("ProbWP nondeterministic for equal seeds")
		}
	}
}
