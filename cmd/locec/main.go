// Command locec runs the full LoCEC pipeline on a synthetic WeChat-like
// network and reports classification quality, phase timings and the
// predicted type distribution.
//
// Usage:
//
//	locec -users 1200 -variant cnn -survey 0.4 -seed 42
//
// The train subcommand runs the pipeline once and saves the trained
// snapshot — graph, communities, model weights, every edge prediction —
// as a versioned binary artifact that locec-serve (or the library's
// ReadArtifact) can cold-start from without retraining:
//
//	locec train -users 1200 -variant xgb -seed 42 -out model.locec
//	locec-serve -artifact model.locec
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"locec"
	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/eval"
	"locec/internal/graph"
	"locec/internal/iodata"
	"locec/internal/social"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "train":
			runTrain(os.Args[2:])
			return
		case "shard":
			runShard(os.Args[2:])
			return
		case "wal-dump":
			os.Exit(runWalDump(os.Args[2:]))
		case "wal-replay":
			os.Exit(runWalReplay(os.Args[2:]))
		}
	}
	load := pipelineFlags(flag.CommandLine)
	export := flag.String("export", "", "write per-edge predictions to this CSV file")
	flag.Parse()

	ds, cfg := load()

	// Hold out 20% of the labeled edges for honest evaluation.
	labeled := ds.LabeledEdges()
	if len(labeled) == 0 {
		fatal(fmt.Errorf("dataset has no revealed labels; generate with -survey or mark edges revealed"))
	}
	_, test := eval.Split(labeled, 0.8, cfg.Seed+2)
	for _, kk := range test {
		ds.SetRevealed(kk, false)
	}
	fmt.Printf("locec: %d users, %d friendships, %d labeled (train) / %d held out, variant %s, detector %s\n",
		ds.G.NumNodes(), ds.G.NumEdges(), len(ds.LabeledEdges()), len(test), cfg.Variant, cfg.Detector)

	res, err := locec.Classify(ds, cfg)
	if err != nil {
		fatal(err)
	}

	truth := make([]social.Label, len(test))
	pred := make([]social.Label, len(test))
	for i, kk := range test {
		e := graph.EdgeFromKey(kk)
		truth[i] = ds.TrueLabel(kk)
		pred[i] = res.Label(e.U, e.V)
	}
	fmt.Println("\nHeld-out evaluation:")
	fmt.Println(eval.Evaluate(truth, pred))

	var dist [social.NumLabels]int
	ds.G.ForEachEdge(func(u, v locec.NodeID) {
		dist[res.Label(u, v)]++
	})
	fmt.Println("\nPredicted relationship distribution:")
	for c := 0; c < social.NumLabels; c++ {
		fmt.Printf("  %-16s %6.1f%%\n", social.Label(c),
			100*float64(dist[c])/float64(ds.G.NumEdges()))
	}

	training, p1, p2, p3 := res.PhaseDurations()
	fmt.Printf("\nPhase times: training=%.2fs phase1=%.2fs phase2=%.2fs phase3=%.2fs (communities: %d)\n",
		training, p1, p2, p3, res.NumCommunities())
	fmt.Printf("Network: mean clustering coefficient %.3f\n", ds.G.MeanClusteringCoefficient())

	if *export != "" {
		if err := exportCSV(*export, ds, res); err != nil {
			fatal(err)
		}
		fmt.Printf("Predictions written to %s\n", *export)
	}
}

// runTrain is the offline half of the train-once / serve-many split: it
// trains on every revealed label (no held-out split — the artifact is a
// production snapshot, not an evaluation run) and writes the result as a
// .locec artifact.
func runTrain(args []string) {
	fs := flag.NewFlagSet("locec train", flag.ExitOnError)
	load := pipelineFlags(fs)
	var (
		out   = fs.String("out", "model.locec", "artifact output path")
		embed = fs.Bool("embed-dataset", false, "embed the raw dataset so the artifact stays mutable (required for WAL checkpoints and POST /v1/mutations after a cold start)")
	)
	_ = fs.Parse(args) // ExitOnError: Parse never returns an error

	ds, cfg := load()
	if len(ds.LabeledEdges()) == 0 {
		fatal(fmt.Errorf("dataset has no revealed labels; generate with -survey or mark edges revealed"))
	}
	fmt.Printf("locec train: %d users, %d friendships, %d labeled, variant %s, detector %s\n",
		ds.G.NumNodes(), ds.G.NumEdges(), len(ds.LabeledEdges()), cfg.Variant, cfg.Detector)

	res, err := locec.Classify(ds, cfg)
	if err != nil {
		fatal(err)
	}
	ex, err := res.Internal().Export()
	if err != nil {
		fatal(err)
	}
	art, err := artifact.New(ds.G, ex, cfg.Seed)
	if err != nil {
		fatal(err)
	}
	art.StampCreated(time.Now())
	if *embed {
		if err := art.EmbedDataset(ds); err != nil {
			fatal(err)
		}
	}
	if err := art.SaveFile(*out); err != nil {
		fatal(err)
	}
	info, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	training, p1, p2, p3 := res.PhaseDurations()
	fmt.Printf("trained in %.2fs (training=%.2fs phase1=%.2fs phase2=%.2fs phase3=%.2fs)\n",
		training+p1+p2+p3, training, p1, p2, p3)
	fmt.Printf("wrote %s (%d bytes, %d communities, %d edge predictions)\n",
		*out, info.Size(), res.NumCommunities(), ds.G.NumEdges())
	fmt.Printf("serve it with: locec-serve -artifact %s\n", *out)
}

// pipelineFlags declares on fs the dataset and pipeline flags the
// one-shot mode and `locec train` share. The returned load, called after
// fs.Parse, builds the dataset and the run's configuration from them,
// exiting on an error.
func pipelineFlags(fs *flag.FlagSet) (load func() (*social.Dataset, locec.Config)) {
	var (
		users    = fs.Int("users", 800, "population size (synthetic mode)")
		seed     = fs.Int64("seed", 42, "random seed")
		survey   = fs.Float64("survey", 0.4, "fraction of edges with revealed labels (synthetic mode)")
		variant  = fs.String("variant", "cnn", "community classifier: cnn or xgb")
		k        = fs.Int("k", 16, "feature matrix rows (CommCNN)")
		epochs   = fs.Int("epochs", 8, "CommCNN training epochs")
		input    = fs.String("input", "", "load a JSON dataset (locec-datagen format) instead of synthesizing")
		detector = fs.String("detector", "gn", "Phase I detector: "+strings.Join(core.DetectorNames(), ", "))
	)
	return func() (*social.Dataset, locec.Config) {
		det, err := locec.ParseDetector(*detector)
		if err != nil {
			fatal(err)
		}
		ds, err := loadOrSynthesize(*input, *users, *seed, *survey)
		if err != nil {
			fatal(err)
		}
		cfg := locec.Config{K: *k, Epochs: *epochs, Seed: *seed, Detector: det}
		if *variant == "xgb" {
			cfg.Variant = locec.VariantXGB
		}
		return ds, cfg
	}
}

// exportCSV writes one row per edge: u,v,predicted,probabilities.
func exportCSV(path string, ds *social.Dataset, res *locec.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write([]string{"u", "v", "predicted", "p_colleague", "p_family", "p_schoolmate"}); err != nil {
		_ = f.Close()
		return err
	}
	var writeErr error
	ds.G.ForEachEdge(func(u, v locec.NodeID) {
		if writeErr != nil {
			return
		}
		p := res.Probabilities(u, v)
		writeErr = w.Write([]string{
			strconv.FormatUint(uint64(u), 10),
			strconv.FormatUint(uint64(v), 10),
			res.Label(u, v).String(),
			strconv.FormatFloat(p[0], 'f', 6, 64),
			strconv.FormatFloat(p[1], 'f', 6, 64),
			strconv.FormatFloat(p[2], 'f', 6, 64),
		})
	})
	if writeErr != nil {
		_ = f.Close()
		return writeErr
	}
	w.Flush()
	if err := w.Error(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// loadOrSynthesize builds the dataset from -input or the generator.
func loadOrSynthesize(input string, users int, seed int64, survey float64) (*social.Dataset, error) {
	if input == "" {
		net, err := locec.Synthesize(locec.SynthConfig{Users: users, Seed: seed})
		if err != nil {
			return nil, err
		}
		net.RevealSurvey(survey, seed+1)
		return net.Dataset, nil
	}
	f, err := os.Open(input)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	doc, err := iodata.Decode(f)
	if err != nil {
		return nil, err
	}
	return doc.ToDataset()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "locec:", err)
	os.Exit(1)
}
