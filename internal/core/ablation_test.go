package core

import (
	"testing"

	"locec/internal/eval"
	"locec/internal/graph"
	"locec/internal/social"
	"locec/internal/wechat"
)

func TestDivideLouvainDetector(t *testing.T) {
	net, err := wechat.Generate(wechat.DefaultConfig(200, 4))
	if err != nil {
		t.Fatal(err)
	}
	egos := Divide(net.Dataset, DivisionConfig{Detector: DetectorLouvain, Seed: 1})
	total := 0
	for _, er := range egos {
		total += len(er.Comms)
		// Partition invariants hold for every detector.
		seen := map[graph.NodeID]bool{}
		for _, c := range er.Comms {
			for _, m := range c.Members {
				if seen[m] {
					t.Fatalf("ego %d: duplicate member", er.Ego)
				}
				seen[m] = true
			}
		}
		if len(seen) != len(er.Members) {
			t.Fatalf("ego %d: partition does not cover members", er.Ego)
		}
	}
	if total == 0 {
		t.Fatal("no communities from Louvain")
	}
}

func TestFeatureMatrixShuffledDeterministic(t *testing.T) {
	net, err := wechat.Generate(wechat.DefaultConfig(150, 5))
	if err != nil {
		t.Fatal(err)
	}
	egos := Divide(net.Dataset, DivisionConfig{})
	var comm *LocalCommunity
	for _, er := range egos {
		for _, c := range er.Comms {
			if len(c.Members) >= 4 {
				comm = c
				break
			}
		}
		if comm != nil {
			break
		}
	}
	if comm == nil {
		t.Skip("no community of size >= 4")
	}
	// ShuffleRows' path: two scratches, one seed.
	shuffled := func() []float64 {
		dst := make([]float64, 8*matrixWidth(net.Dataset))
		new(matrixScratch).fill(dst, net.Dataset, comm, 8, true, 7)
		return dst
	}
	a, b := shuffled(), shuffled()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("shuffled matrix not deterministic for equal seeds")
		}
	}
	// Shuffling must permute rows, not change content: total mass equals
	// the tightness-ordered matrix's when k covers the whole community.
	c := FeatureMatrix(net.Dataset, comm, 8)
	totalA, totalC := 0.0, 0.0
	for i := range a {
		totalA += a[i]
		totalC += c.Data[i]
	}
	if diff := totalA - totalC; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("shuffled matrix changed content: %v vs %v", totalA, totalC)
	}
}

func TestAgreementRulePipeline(t *testing.T) {
	net, err := wechat.Generate(wechat.DefaultConfig(400, 6))
	if err != nil {
		t.Fatal(err)
	}
	net.RunSurvey(0.4, 2)
	labeled := net.Dataset.LabeledEdges()
	_, test := eval.Split(labeled, 0.8, 3)
	for _, k := range test {
		net.Dataset.SetRevealed(k, false)
	}
	p := NewPipeline(Config{
		Classifier:    &XGBClassifier{Seed: 1},
		AgreementRule: true,
		Seed:          1,
	})
	res, err := p.Run(net.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]social.Label, len(test))
	pred := make([]social.Label, len(test))
	for i, k := range test {
		truth[i] = net.Dataset.TrueLabel(k)
		e := graph.EdgeFromKey(k)
		pred[i], _ = res.PredictedLabelOK(e.U, e.V)
	}
	rep := eval.Evaluate(truth, pred)
	if rep.Overall.F1 < 0.55 {
		t.Fatalf("agreement rule F1 = %.3f, want >= 0.55\n%s", rep.Overall.F1, rep)
	}
	// Probabilities are normalized.
	for _, k := range test[:20] {
		probs := res.Edges.Probs(k)
		sum := 0.0
		for _, v := range probs {
			sum += v
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("agreement probabilities sum %v", sum)
		}
	}
}
