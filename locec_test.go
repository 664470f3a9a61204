package locec

import (
	"math"
	"slices"
	"testing"
)

func TestBuilderEndToEnd(t *testing.T) {
	// Two triangles bridged by one edge; label the triangles differently.
	b := NewBuilder(6, 2)
	for i := NodeID(0); i < 6; i++ {
		b.SetFeatures(i, []float64{float64(i) / 6, 1})
	}
	edges := [][2]NodeID{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}, {2, 3}}
	for _, e := range edges {
		b.AddFriendship(e[0], e[1])
	}
	b.AddInteraction(0, 1, DimMessage, 5)
	b.AddInteraction(3, 4, DimLikeGame, 2)
	b.SetLabel(0, 1, Family)
	b.SetLabel(0, 2, Family)
	b.SetLabel(1, 2, Family)
	b.SetLabel(3, 4, Schoolmate)
	b.SetLabel(3, 5, Schoolmate)
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ds.G.NumEdges() != 7 {
		t.Fatalf("edges = %d", ds.G.NumEdges())
	}
	// The unlabeled bridge gets ground truth Other and stays hidden.
	if ds.TrueLabel(edgeKey(2, 3)) != Other {
		t.Fatal("bridge should default to Other")
	}
	if len(ds.LabeledEdges()) != 5 {
		t.Fatalf("labeled = %d", len(ds.LabeledEdges()))
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(3, 1)
	b.AddFriendship(0, 0) // self loop
	if _, err := b.Build(); err == nil {
		t.Fatal("self-loop accepted")
	}
	b = NewBuilder(3, 1)
	b.AddInteraction(0, 1, DimMessage, 1) // no such friendship
	if _, err := b.Build(); err == nil {
		t.Fatal("interaction without friendship accepted")
	}
	b = NewBuilder(3, 1)
	b.AddFriendship(0, 1)
	b.SetLabel(0, 2, Family) // no such friendship
	if _, err := b.Build(); err == nil {
		t.Fatal("label without friendship accepted")
	}
	b = NewBuilder(3, 2)
	b.SetFeatures(0, []float64{1}) // wrong width
	if _, err := b.Build(); err == nil {
		t.Fatal("wrong feature width accepted")
	}
	b = NewBuilder(3, 1)
	b.AddFriendship(0, 1)
	b.SetLabel(0, 1, Unlabeled)
	if _, err := b.Build(); err == nil {
		t.Fatal("Unlabeled as ground truth accepted")
	}
	b = NewBuilder(3, 1)
	b.SetFeatures(1, []float64{math.NaN()})
	if _, err := b.Build(); err == nil {
		t.Fatal("NaN feature accepted")
	}
	b = NewBuilder(3, 1)
	b.AddFriendship(0, 1)
	b.AddInteraction(0, 1, DimRepost, -2)
	if _, err := b.Build(); err == nil {
		t.Fatal("negative interaction count accepted")
	}
}

func TestSynthesizeAndClassifyXGB(t *testing.T) {
	net, err := Synthesize(SynthConfig{Users: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	net.RevealSurvey(0.4, 3)
	res, err := Classify(net.Dataset, Config{Variant: VariantXGB, Rounds: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities() == 0 {
		t.Fatal("no communities detected")
	}
	// Every edge has a prediction and probabilities summing to 1.
	checked := 0
	correct := 0
	net.Dataset.G.ForEachEdge(func(u, v NodeID) {
		l := res.Label(u, v)
		if !l.Valid() {
			t.Fatalf("edge {%d,%d} got label %v", u, v, l)
		}
		p := res.Probabilities(u, v)
		sum := 0.0
		for _, x := range p {
			sum += x
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("probabilities sum %v", sum)
		}
		if truth := net.TrueLabel(u, v); truth.Valid() {
			checked++
			if truth == l {
				correct++
			}
		}
	})
	if checked == 0 {
		t.Fatal("no evaluated edges")
	}
	if acc := float64(correct) / float64(checked); acc < 0.6 {
		t.Fatalf("accuracy on truth-bearing edges = %.3f, want >= 0.6", acc)
	}
	// Phase durations present.
	_, p1, p2, p3 := res.PhaseDurations()
	if p1 <= 0 || p2 <= 0 || p3 <= 0 {
		t.Fatal("phase durations missing")
	}
}

func TestClassifyMissingEdge(t *testing.T) {
	net, err := Synthesize(SynthConfig{Users: 100, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	net.RevealSurvey(0.5, 2)
	res, err := Classify(net.Dataset, Config{Variant: VariantXGB, Rounds: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A non-edge returns Unlabeled / nil.
	var u, v NodeID = 0, 1
	found := false
	for ; v < 99 && !found; v++ {
		if !net.Dataset.G.HasEdge(u, v) {
			found = true
			break
		}
	}
	if found {
		if res.Label(u, v) != Unlabeled || res.Probabilities(u, v) != nil {
			t.Fatal("non-edge should be Unlabeled with nil probabilities")
		}
	}
}

// TestProbabilitiesAreCopies: the vector Probabilities returns belongs to
// the caller; appending to it or writing into it leaves every edge's
// probabilities as they were.
func TestProbabilitiesAreCopies(t *testing.T) {
	net, err := Synthesize(SynthConfig{Users: 100, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	net.RevealSurvey(0.5, 2)
	res, err := Classify(net.Dataset, Config{Variant: VariantXGB, Rounds: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var edges [][2]NodeID
	net.Dataset.G.ForEachEdge(func(u, v NodeID) { edges = append(edges, [2]NodeID{u, v}) })
	want := make([][]float64, len(edges))
	for i, e := range edges {
		want[i] = slices.Clone(res.Probabilities(e[0], e[1]))
	}
	for _, e := range edges {
		p := res.Probabilities(e[0], e[1])
		_ = append(p, 42)
		p[0] = 42
	}
	for i, e := range edges {
		if got := res.Probabilities(e[0], e[1]); !slices.Equal(got, want[i]) {
			t.Fatalf("edge {%d,%d}: probabilities %v after callers appended and wrote, want %v", e[0], e[1], got, want[i])
		}
	}
}

func TestClassifyNilDataset(t *testing.T) {
	if _, err := Classify(nil, Config{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
}

func TestVariantString(t *testing.T) {
	if VariantCNN.String() != "LoCEC-CNN" || VariantXGB.String() != "LoCEC-XGB" {
		t.Fatal("variant names wrong")
	}
}

func TestDetectorAblationsRun(t *testing.T) {
	net, err := Synthesize(SynthConfig{Users: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	net.RevealSurvey(0.4, 4)
	for _, det := range []Detector{DetectorLabelProp, DetectorLouvain} {
		res, err := Classify(net.Dataset, Config{
			Variant: VariantXGB, Rounds: 5, Seed: 2, Detector: det,
		})
		if err != nil {
			t.Fatalf("detector %v: %v", det, err)
		}
		if res.NumCommunities() == 0 {
			t.Fatalf("no communities from detector %v", det)
		}
	}
}

func TestAgreementRuleAblationRuns(t *testing.T) {
	net, err := Synthesize(SynthConfig{Users: 200, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	net.RevealSurvey(0.4, 4)
	res, err := Classify(net.Dataset, Config{
		Variant: VariantXGB, Rounds: 5, Seed: 2, AgreementRule: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every edge still receives a valid prediction.
	net.Dataset.G.ForEachEdge(func(u, v NodeID) {
		if !res.Label(u, v).Valid() {
			t.Fatalf("edge {%d,%d} got %v", u, v, res.Label(u, v))
		}
	})
}

func TestNodeCommunities(t *testing.T) {
	net, err := Synthesize(SynthConfig{Users: 120, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	net.RevealSurvey(0.5, 3)
	res, err := Classify(net.Dataset, Config{Variant: VariantXGB, Rounds: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for u := NodeID(0); int(u) < net.Dataset.G.NumNodes(); u++ {
		for _, cv := range res.NodeCommunities(u) {
			seen++
			if cv.Ego != u {
				t.Fatalf("node %d community has ego %d", u, cv.Ego)
			}
			if len(cv.Members) == 0 || len(cv.Members) != len(cv.Tightness) {
				t.Fatalf("node %d malformed community: %d members, %d tightness",
					u, len(cv.Members), len(cv.Tightness))
			}
			if !cv.Label.Valid() {
				t.Fatalf("node %d community label %v", u, cv.Label)
			}
			// Every member must be a friend of the ego.
			for _, m := range cv.Members {
				if !net.Dataset.G.HasEdge(u, m) {
					t.Fatalf("community member %d is not a friend of %d", m, u)
				}
			}
		}
	}
	if seen != res.NumCommunities() {
		t.Fatalf("NodeCommunities covered %d communities, NumCommunities = %d",
			seen, res.NumCommunities())
	}
	if got := res.NodeCommunities(NodeID(999999)); got != nil {
		t.Fatalf("out-of-range node returned %d communities", len(got))
	}
	if res.ClassifierName() != "LoCEC-XGB" {
		t.Fatalf("classifier name = %q", res.ClassifierName())
	}
}
