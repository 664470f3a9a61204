package locec_test

import (
	"bytes"
	"fmt"

	"locec"
)

// ExampleSynthesize generates a WeChat-like network with planted social
// circles and reveals ground truth for a survey sample of the edges — the
// stand-in for the paper's proprietary trace.
func ExampleSynthesize() {
	net, err := locec.Synthesize(locec.SynthConfig{Users: 200, Seed: 1})
	if err != nil {
		fmt.Println(err)
		return
	}
	net.RevealSurvey(0.4, 7)
	ds := net.Dataset
	fmt.Println("users:", ds.G.NumNodes())
	fmt.Println("friendships:", ds.G.NumEdges())
	fmt.Println("revealed labels:", len(ds.LabeledEdges()))
	// Output:
	// users: 200
	// friendships: 2114
	// revealed labels: 799
}

// ExampleNewBuilder assembles a dataset by hand: users, friendships,
// interaction counts and a revealed ground-truth label.
func ExampleNewBuilder() {
	b := locec.NewBuilder(5, 0)
	b.AddFriendship(0, 1).AddFriendship(1, 2).AddFriendship(0, 2)
	b.AddFriendship(2, 3).AddFriendship(3, 4)
	b.AddInteraction(0, 1, locec.DimMessage, 12)
	b.SetLabel(0, 1, locec.Colleague)
	ds, err := b.Build()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("users:", ds.G.NumNodes())
	fmt.Println("friendships:", ds.G.NumEdges())
	fmt.Println("labeled:", len(ds.LabeledEdges()))
	// Output:
	// users: 5
	// friendships: 5
	// labeled: 1
}

// ExampleClassify runs the full three-phase pipeline on a synthesized
// network and counts the classified friendships. The XGBoost variant keeps
// the example fast; drop the Variant field for the paper's CNN.
func ExampleClassify() {
	net, err := locec.Synthesize(locec.SynthConfig{Users: 200, Seed: 1})
	if err != nil {
		fmt.Println(err)
		return
	}
	net.RevealSurvey(0.4, 7)
	res, err := locec.Classify(net.Dataset, locec.Config{
		Variant: locec.VariantXGB, Seed: 1,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	classified := 0
	net.Dataset.G.ForEachEdge(func(u, v locec.NodeID) {
		if res.Label(u, v).Valid() {
			classified++
		}
	})
	fmt.Println("classifier:", res.ClassifierName())
	fmt.Printf("classified %d of %d friendships\n", classified, net.Dataset.G.NumEdges())
	// Output:
	// classifier: LoCEC-XGB
	// classified 2114 of 2114 friendships
}

// ExampleResult_WriteArtifact is the offline/online split in miniature:
// train once, serialize the snapshot (graph, communities, model weights,
// every prediction) as a versioned binary artifact, restore it in another
// process with ReadArtifact, and get identical answers without retraining.
// In production the artifact is a file: `locec train -out model.locec`
// writes it and `locec-serve -artifact model.locec` cold-starts from it.
func ExampleResult_WriteArtifact() {
	net, err := locec.Synthesize(locec.SynthConfig{Users: 150, Seed: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	net.RevealSurvey(0.4, 7)
	res, err := locec.Classify(net.Dataset, locec.Config{
		Variant: locec.VariantXGB, Seed: 2,
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	var snapshot bytes.Buffer // a file in real deployments
	if err := res.WriteArtifact(&snapshot, net.Dataset); err != nil {
		fmt.Println(err)
		return
	}
	restored, err := locec.ReadArtifact(&snapshot)
	if err != nil {
		fmt.Println(err)
		return
	}

	identical := true
	net.Dataset.G.ForEachEdge(func(u, v locec.NodeID) {
		if restored.Label(u, v) != res.Label(u, v) {
			identical = false
		}
	})
	fmt.Println("restored without retraining:", restored.ClassifierName())
	fmt.Println("communities preserved:", restored.NumCommunities() == res.NumCommunities())
	fmt.Println("predictions identical:", identical)
	// Output:
	// restored without retraining: LoCEC-XGB
	// communities preserved: true
	// predictions identical: true
}
