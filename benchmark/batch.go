package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"locec/internal/community"
	"locec/internal/core"
	"locec/internal/gbdt"
	"locec/internal/graph"
	"locec/internal/logreg"
	"locec/internal/nn"
	"locec/internal/social"
	"locec/internal/tensor"
)

// batchSpec is one offline workload: a dataset size, a pipeline and the
// quality floor its output must clear.
type batchSpec struct {
	Data    datasetSpec
	Pipe    pipelineSpec
	MinF1   float64
	MinRuns int
}

// runBatch measures full Pipeline.Run calls on the workload's dataset. One
// operation is one run; the window closes after the first run that ends
// past cfg.Seconds.
func runBatch(spec batchSpec, cfg runConfig) (*report, error) {
	if cfg.Trace {
		return traceBatch(spec, cfg)
	}
	rep := newReport()

	var ds *social.Dataset
	var setups []time.Duration
	// Cheap set-ups repeat until they add up to a measurable time, so the
	// figure for a 5 ms generation rests on a hundred samples, not thirteen.
	// Each starts from a collected heap, as the first one in a process does.
	for begun := time.Now(); len(setups) < cfg.Size.SetupRepeats || time.Since(begun) < cfg.Size.MinSetup; {
		runtime.GC()
		t0 := time.Now()
		d, err := generate(spec.Data)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		ds = d
	}
	rep.fact("n=%d edges=%d detector=%s variant=%s", ds.G.NumNodes(), ds.G.NumEdges(), spec.Pipe.Detector, spec.Pipe.Variant)

	// Warm-up: one unmeasured run grows the heap to its working size.
	if _, _, err := pipelineRun(spec.Pipe, ds); err != nil {
		return nil, err
	}

	var runs []time.Duration
	var last *core.Result
	start, heap := time.Now(), heapNow()
	for len(runs) < spec.MinRuns || time.Since(start).Seconds() < cfg.Seconds {
		res, d, err := pipelineRun(spec.Pipe, ds)
		rep.Attempted++
		if err != nil {
			rep.fail("run %d: %v", rep.Attempted, err)
			if rep.Failed > spec.MinRuns {
				return nil, fmt.Errorf("every run fails: %w", err)
			}
			continue
		}
		runs = append(runs, d)
		last = res
	}
	window, heap := time.Since(start), heap.since()
	if last == nil {
		return nil, fmt.Errorf("no run succeeded")
	}

	f1 := checkBatchOutput(rep, spec, ds, last)
	rep.timing("run_wall", "s", scaled(runs, 1))
	rep.wallClock(false, runs, [][]time.Duration{runs}, window, len(runs))
	rep.gated(setups, runs, heap, len(runs), f1)
	return rep, nil
}

// pipelineRun times one full run on a fresh pipeline.
func pipelineRun(spec pipelineSpec, ds *social.Dataset) (*core.Result, time.Duration, error) {
	p, _, _, err := spec.build()
	if err != nil {
		return nil, 0, err
	}
	// Every run starts from a collected heap, outside the timed part: the
	// collector then triggers at the same points of every run, which keeps
	// both the run time and the process's peak RSS (bimodal otherwise,
	// 141 or 188 MB on batch_xgb_4k) steady.
	runtime.GC()
	t0 := time.Now()
	res, err := p.Run(ds)
	return res, time.Since(t0), err
}

// checkBatchOutput applies the batch output checks: every edge predicted,
// macro-F1 at or above the workload's floor.
func checkBatchOutput(rep *report, spec batchSpec, ds *social.Dataset, res *core.Result) float64 {
	f1, missing := heldOutMacroF1(ds, res)
	if missing > 0 {
		rep.fail("%d of %d edges have no prediction", missing, ds.G.NumEdges())
	}
	if f1 < spec.MinF1 {
		rep.fail("macro_f1 %.4f below the floor %.2f", f1, spec.MinF1)
	}
	return f1
}

// stagedRun is Pipeline.Run taken apart: the same five stage calls
// RunWithEgos makes, each under a span of run id.
func stagedRun(tr *tracer, id int, spec pipelineSpec, ds *social.Dataset) (*core.Result, time.Duration, error) {
	p, div, cl, err := spec.build()
	if err != nil {
		return nil, 0, err
	}
	runtime.GC() // as pipelineRun does: both kinds of run start from a collected heap
	root := tr.begin("pipeline.staged_run", id, -1)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := tr.begin("core.divide", id, root)
	egos := core.Divide(ds, div)
	tr.end(sp, nil)
	runtime.ReadMemStats(&after)
	tr.spans[sp].Counts = map[string]float64{
		"egos": float64(len(egos)), "allocs": float64(after.Mallocs - before.Mallocs),
	}

	res := &core.Result{Egos: egos, ClassifierName: cl.Name(), Classifier: cl}
	for _, er := range egos {
		res.Communities = append(res.Communities, er.Comms...)
	}
	sp = tr.begin("core.train_classifier", id, root)
	err = p.TrainClassifier(ds, res.Communities)
	tr.end(sp, nil)
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin("core.classify_communities", id, root)
	p.ClassifyCommunities(ds, res.Communities)
	tr.end(sp, map[string]float64{"communities": float64(len(res.Communities))})

	sp = tr.begin("core.train_combiner", id, root)
	err = p.TrainCombiner(ds, res)
	tr.end(sp, map[string]float64{"rows": float64(len(ds.LabeledEdges()))})
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin("core.predict_edges", id, root)
	err = p.RecombineEdges(res, ds.G.Edges())
	tr.end(sp, map[string]float64{"edges": float64(ds.G.NumEdges())})
	if err != nil {
		return nil, 0, err
	}
	return res, tr.end(root, nil), nil
}

// stageSpans are the children of pipeline.staged_run, in call order, with
// the per-layer metric each feeds.
var stageSpans = []struct{ span, metric string }{
	{"core.divide", "core.divide_s"},
	{"core.train_classifier", "core.train_classifier_s"},
	{"core.classify_communities", "core.classify_communities_s"},
	{"core.train_combiner", "core.train_combiner_s"},
	{"core.predict_edges", "core.predict_edges_s"},
}

// traceBatch is the traced run of a batch workload: untraced runs and
// staged, span-wrapped runs alternate for half the window, then each
// kernel is replayed alone on the inputs its stage used.
func traceBatch(spec batchSpec, cfg runConfig) (*report, error) {
	rep := newReport()
	tr := newTracer(cfg.Workload)

	sp := tr.begin("wechat.generate", 0, -1)
	ds, err := generate(spec.Data)
	if err != nil {
		return nil, err
	}
	rep.Metrics["wechat.generate_s"] = tr.end(sp, map[string]float64{
		"nodes": float64(ds.G.NumNodes()), "edges": float64(ds.G.NumEdges()),
	}).Seconds()
	rep.fact("n=%d edges=%d detector=%s variant=%s", ds.G.NumNodes(), ds.G.NumEdges(), spec.Pipe.Detector, spec.Pipe.Variant)

	if _, _, err := pipelineRun(spec.Pipe, ds); err != nil {
		return nil, err
	}

	var plain, staged []time.Duration
	var plainRes, stagedRes *core.Result
	var before, after runtime.MemStats
	start := time.Now()
	for id := 1; id <= 2 || time.Since(start).Seconds() < cfg.Seconds/2; id++ {
		runtime.ReadMemStats(&before)
		res, d, err := pipelineRun(spec.Pipe, ds)
		runtime.ReadMemStats(&after)
		rep.Attempted++
		if err != nil {
			return nil, err
		}
		plain, plainRes = append(plain, d), res
		rep.Metrics["run.allocs"] = float64(after.Mallocs - before.Mallocs)
		rep.Metrics["run.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)

		res, d, err = stagedRun(tr, id, spec.Pipe, ds)
		rep.Attempted++
		if err != nil {
			return nil, err
		}
		staged, stagedRes = append(staged, d), res
	}

	checkBatchOutput(rep, spec, ds, stagedRes)
	if diff := labelDiff(ds, plainRes, stagedRes); diff > 0 {
		rep.fail("staged run disagrees with Pipeline.Run on %d edges", diff)
	}

	sum := 0.0
	for _, st := range stageSpans {
		v := median(scaled(tr.durations(st.span), 1))
		rep.Metrics[st.metric] = v
		sum += v
	}
	rep.Metrics["core.stage_sum_s"] = sum
	rep.Metrics["core.ns_per_edge"] = rep.Metrics["core.predict_edges_s"] * 1e9 / float64(ds.G.NumEdges())
	for _, s := range tr.spans {
		if s.Name == "core.divide" {
			rep.Metrics["core.divide_allocs"] = s.Counts["allocs"]
		}
	}
	untraced := median(scaled(plain, 1))
	var plainWall time.Duration
	for _, d := range plain {
		plainWall += d
	}
	rep.wallClock(true, plain, [][]time.Duration{plain}, plainWall, len(plain))
	rep.Metrics["trace.overhead_share"] = (median(scaled(staged, 1)) - untraced) / untraced
	rep.timing("run_wall (untraced)", "s", scaled(plain, 1))
	rep.timing("run_wall (staged)", "s", scaled(staged, 1))

	div, err := spec.Pipe.divisionConfig()
	if err != nil {
		return nil, err
	}
	if err := replayKernels(rep, tr, div, ds, stagedRes); err != nil {
		return nil, err
	}
	return rep, rep.writeTrace(tr, cfg)
}

// labelDiff counts the edges two results label differently.
func labelDiff(ds *social.Dataset, a, b *core.Result) int {
	diff := 0
	ds.G.ForEachEdge(func(u, v graph.NodeID) {
		la, oka := a.PredictedLabelOK(u, v)
		lb, okb := b.PredictedLabelOK(u, v)
		if la != lb || oka != okb {
			diff++
		}
	})
	return diff
}

// replayKernels calls each layer's public entry point alone, on the inputs
// the stages of res used, so a stage's time can be split into the layer
// under it and the glue around it. Every hyper-parameter comes from the
// objects the staged run used (its division config, its trained classifier
// with defaults filled in, the benchmark's combiner config), and each
// replay's output must equal what the stage produced: a replay that has
// drifted from the pipeline's configuration fails the run.
func replayKernels(rep *report, tr *tracer, div core.DivisionConfig, ds *social.Dataset, res *core.Result) error {
	n := ds.G.NumNodes()

	// Phase I: ego extraction, then the detector over the extracted egos.
	sp := tr.begin("graph.ego_extract", 0, -1)
	egos := make([]*graph.EgoNetwork, n)
	for u := range egos {
		egos[u] = ds.G.Ego(graph.NodeID(u))
	}
	rep.Metrics["graph.ego_extract_s"] = tr.end(sp, map[string]float64{"egos": float64(n)}).Seconds()

	parts := make([]*community.Partition, n)
	sp = tr.begin("community.detect", 0, -1)
	for u, en := range egos {
		switch div.Detector {
		case core.DetectorLabelProp:
			// 20 sweeps is a literal inside core.Divide; the comparison
			// below is what holds this copy to it.
			parts[u] = community.LabelPropagation(en.G, 20, div.Seed+int64(u))
		case core.DetectorGirvanNewman:
			parts[u] = community.GirvanNewman(en.G, community.Options{Patience: div.GNPatience})
		case core.DetectorClauset:
			parts[u] = community.LocalDivide(en.G, community.LocalOptions{Kind: community.LocalClauset}).Part
		default:
			return fmt.Errorf("no kernel replay for detector %s", div.Detector)
		}
	}
	detect := tr.end(sp, map[string]float64{"egos": float64(n)}).Seconds()
	rep.Metrics["community.detect_s"] = detect
	rep.Metrics["community.egos_per_s"] = float64(n) / detect
	for u, part := range parts {
		if !slices.Equal(part.Assign, res.Egos[u].CommIdx) {
			rep.fail("community.detect replay divides ego %d differently from core.Divide", u)
			break
		}
	}

	// Phase II: the classifier's trainer on the labeled communities.
	var comms []*core.LocalCommunity
	var ys []int
	for _, c := range res.Communities {
		if l := c.TruthLabel(); l.Valid() {
			comms = append(comms, c)
			ys = append(ys, int(l))
		}
	}
	rows := map[string]float64{"rows": float64(len(comms))}
	var predict func(i int) []float64
	switch cl := res.Classifier.(type) {
	case *core.CNNClassifier:
		features := int(social.NumInteractionDims) + ds.NumFeatureDims()
		xs := make([]*tensor.Tensor, len(comms))
		for i, c := range comms {
			xs[i] = tensor.FromMatrix(core.FeatureMatrix(ds, c, cl.K))
		}
		sp = tr.begin("nn.fit", 0, -1)
		net, err := nn.NewCommCNN(nn.CommCNNConfig{
			K: cl.K, Features: features, Classes: social.NumLabels, Filters: cl.Filters, Hidden: cl.Hidden, Seed: cl.Seed,
		})
		if err != nil {
			return err
		}
		net.Fit(xs, ys, nn.TrainConfig{
			Epochs: cl.Epochs, BatchSize: cl.BatchSize, Seed: cl.Seed + 1, Workers: cl.Workers, Optimizer: nn.NewAdam(cl.LR),
		})
		fit := tr.end(sp, rows).Seconds()
		rep.Metrics["nn.fit_s"] = fit
		rep.Metrics["nn.samples_per_s"] = float64(len(comms)*cl.Epochs) / fit
		predict = func(i int) []float64 { return net.Predict(xs[i]) }
		// The second square-branch convolution: Filters filters over
		// Filters x 3 x 3 patches at every position of the K x features
		// input.
		rep.Metrics["tensor.gemm_conv_gflops"] = gemmGFLOPS(cl.Filters, cl.Filters*9, cl.K*features,
			func(dst, a, b []float64, m, k, n int) { tensor.MatMul(dst, a, b, m, k, n) })
	case *core.XGBClassifier:
		X := make([][]float64, len(comms))
		for i, c := range comms {
			X[i] = core.PooledFeatures(ds, c)
		}
		cfg := cl.Config
		cfg.Classes = social.NumLabels
		if cl.Seed != 0 {
			cfg.Seed = cl.Seed
		}
		if cl.Workers != 0 {
			cfg.Workers = cl.Workers
		}
		sp = tr.begin("gbdt.train", 0, -1)
		model, err := gbdt.Train(X, ys, cfg)
		if err != nil {
			return err
		}
		train := tr.end(sp, rows).Seconds()
		rep.Metrics["gbdt.train_s"] = train
		rep.Metrics["gbdt.rows_per_s"] = float64(len(comms)) / train
		predict = func(i int) []float64 { return model.PredictProba(X[i]) }
	default:
		return fmt.Errorf("no kernel replay for classifier %T", cl)
	}
	for i, c := range comms {
		if !slices.Equal(predict(i), c.Probs) {
			rep.fail("replayed classifier disagrees with %s on community %d of ego %d", res.ClassifierName, i, c.Ego)
			break
		}
	}

	// Phase III: the combiner's trainer on the revealed edges' features.
	labeled := ds.LabeledEdges()
	X := make([][]float64, len(labeled))
	y := make([]int, len(labeled))
	for i, k := range labeled {
		e := graph.EdgeFromKey(k)
		X[i] = core.AppendEdgeFeatures(nil, res.Egos, e.U, e.V)
		y[i] = int(ds.TrueLabels[k])
	}
	sp = tr.begin("logreg.train", 0, -1)
	combiner, err := logreg.Train(X, y, combinerConfig)
	if err != nil {
		return err
	}
	train := tr.end(sp, map[string]float64{"rows": float64(len(X)), "features": float64(len(X[0]))}).Seconds()
	rep.Metrics["logreg.train_s"] = train
	rep.Metrics["logreg.rows_per_s"] = float64(len(X)) / train
	if !slices.Equal(combiner.W, res.Combiner.W) {
		rep.fail("logreg.train replay fits other weights than core.TrainCombiner")
	}
	// A combiner mini-batch at logreg's default size: gemmBatch bias-first
	// rows against the class weight matrix, logits = X * W^T.
	rep.Metrics["tensor.gemm_logreg_gflops"] = gemmGFLOPS(gemmBatch, len(X[0])+1, social.NumLabels,
		func(dst, a, b []float64, m, k, n int) { tensor.MatMulABTAcc(dst, a, b, m, n, k) })
	return nil
}

// gemmBatch is the row count of the combiner GEMM shape that
// tensor.gemm_logreg_gflops is measured at.
const gemmBatch = 32

// gemmGFLOPS times one GEMM kernel at an m x k by k x n shape for about
// 50 ms and returns the achieved rate, counting 2*m*k*n operations per
// call. mul receives (dst m*n, a m*k, b k*n) and the three dimensions.
func gemmGFLOPS(m, k, n int, mul func(dst, a, b []float64, m, k, n int)) float64 {
	a, b, dst := make([]float64, m*k), make([]float64, k*n), make([]float64, m*n)
	for i := range a {
		a[i] = float64(i%7) - 3
	}
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < 50*time.Millisecond {
		for range 16 {
			mul(dst, a, b, m, k, n)
		}
		calls += 16
	}
	return float64(calls) * 2 * float64(m) * float64(k) * float64(n) / time.Since(t0).Seconds() / 1e9
}
