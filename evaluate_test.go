package locec

import (
	"testing"
)

func TestHoldOutAndEvaluateOn(t *testing.T) {
	net, err := Synthesize(SynthConfig{Users: 300, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	net.RevealSurvey(0.4, 5)
	before := len(net.Dataset.LabeledEdges())
	test := HoldOut(net.Dataset, 0.2, 7)
	after := len(net.Dataset.LabeledEdges())
	if len(test) == 0 {
		t.Fatal("empty test split")
	}
	if after+len(test) != before {
		t.Fatalf("hold-out accounting: %d + %d != %d", after, len(test), before)
	}
	// Held-out edges must no longer be revealed.
	for _, e := range test {
		if net.Dataset.IsRevealed(edgeKey(e.U, e.V)) {
			t.Fatal("held-out edge still revealed")
		}
	}
	res, err := Classify(net.Dataset, Config{Variant: VariantXGB, Rounds: 10, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	ev := res.EvaluateOn(net.Dataset, test)
	if ev.Overall.F1 < 0.6 {
		t.Fatalf("overall F1 = %.3f, want >= 0.6", ev.Overall.F1)
	}
	if ev.Overall.Support == 0 {
		t.Fatal("no evaluated instances")
	}
	// Per-class metrics bounded.
	for c := 0; c < NumLabels; c++ {
		m := ev.PerClass[c]
		if m.Precision < 0 || m.Precision > 1 || m.Recall < 0 || m.Recall > 1 || m.F1 < 0 || m.F1 > 1 {
			t.Fatalf("class %d metrics out of range: %+v", c, m)
		}
	}
}

func TestHoldOutDeterministic(t *testing.T) {
	mk := func() []Friendship {
		net, err := Synthesize(SynthConfig{Users: 200, Seed: 33})
		if err != nil {
			t.Fatal(err)
		}
		net.RevealSurvey(0.4, 5)
		return HoldOut(net.Dataset, 0.25, 9)
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("split sizes differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("hold-out not deterministic")
		}
	}
}

func TestMultiLabelThroughFacade(t *testing.T) {
	net, err := Synthesize(SynthConfig{Users: 200, Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	net.RevealSurvey(0.4, 5)
	res, err := Classify(net.Dataset, Config{Variant: VariantXGB, Rounds: 8, Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	net.Dataset.G.ForEachEdge(func(u, v NodeID) {
		if found {
			return
		}
		ls := res.MultiLabel(u, v, 0.0)
		if len(ls) != NumLabels {
			t.Fatalf("threshold 0 should return all classes, got %d", len(ls))
		}
		for i := 1; i < len(ls); i++ {
			if ls[i].Score > ls[i-1].Score {
				t.Fatal("MultiLabel not sorted")
			}
		}
		// The top multi-label equals the principal prediction.
		if ls[0].Label != res.Label(u, v) {
			t.Fatalf("top multi-label %v != principal %v", ls[0].Label, res.Label(u, v))
		}
		found = true
	})
	if !found {
		t.Fatal("no edges")
	}
}
