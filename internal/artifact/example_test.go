package artifact_test

import (
	"bytes"
	"fmt"

	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/wechat"
)

// Example walks the whole offline/online split at the package level:
// train a pipeline, wrap the result in an artifact, Save it to a byte
// stream, Load it back (checksums verified, sections decoded lazily) and
// rebuild a ready-to-serve Result with RunFromArtifact — no retraining.
func Example() {
	net, err := wechat.Generate(wechat.DefaultConfig(80, 7))
	if err != nil {
		fmt.Println(err)
		return
	}
	net.RunSurvey(0.5, 8)
	pipe := core.NewPipeline(core.Config{
		Division:   core.DivisionConfig{Detector: core.DetectorLabelProp, Seed: 1},
		Classifier: &core.XGBClassifier{Seed: 1},
		Seed:       1,
	})
	res, err := pipe.Run(net.Dataset)
	if err != nil {
		fmt.Println(err)
		return
	}

	// Offline: export and serialize the trained snapshot.
	ex, err := res.Export()
	if err != nil {
		fmt.Println(err)
		return
	}
	art, err := artifact.New(net.Dataset.G, ex, 7)
	if err != nil {
		fmt.Println(err)
		return
	}
	var file bytes.Buffer
	if err := art.Save(&file); err != nil {
		fmt.Println(err)
		return
	}

	// Online: load, decode and serve — no training code runs.
	loaded, err := artifact.Load(&file)
	if err != nil {
		fmt.Println(err)
		return
	}
	lex, err := loaded.Export()
	if err != nil {
		fmt.Println(err)
		return
	}
	restored, err := core.NewPipeline(core.Config{}).RunFromArtifact(lex)
	if err != nil {
		fmt.Println(err)
		return
	}

	identical := restored.Edges.Len() == res.Edges.Len()
	for _, k := range res.Edges.Keys() {
		want, _ := res.Edges.Label(k)
		if got, ok := restored.Edges.Label(k); !ok || got != want {
			identical = false
		}
	}
	fmt.Println("classifier:", loaded.Meta().Classifier)
	fmt.Println("edges match:", loaded.Meta().Edges == net.Dataset.G.NumEdges())
	fmt.Println("predictions identical:", identical)
	// Output:
	// classifier: LoCEC-XGB
	// edges match: true
	// predictions identical: true
}
