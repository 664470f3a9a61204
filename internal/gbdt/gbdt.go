// Package gbdt implements an XGBoost-style gradient boosted decision tree
// learner (Chen & Guestrin 2016): second-order gradient statistics,
// histogram-binned greedy split finding with the regularized gain formula,
// shrinkage, and row/column subsampling. Multi-class problems use the
// softmax objective with one regression tree per class per round.
//
// Split finding runs over per-feature histograms (≤256 bins, quantized
// once before boosting — see histogram.go) and fans out across a pool of
// persistent workers with per-worker scratch. The trainer is deterministic
// by construction: Config.Workers changes wall-clock time, never the
// trees. The exact sort-based enumeration is retained in
// split_reference_test.go as the equivalence oracle.
//
// Besides class probabilities, the model exposes the per-tree leaf values
// for an input — the "community embedding" LoCEC-XGB feeds to its edge
// classifier, following the paper's reference to He et al. (ADKDD 2014).
// Inference walks a flattened structure-of-arrays forest (flat.go).
package gbdt

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"

	"locec/internal/tensor"
)

// Config controls training.
type Config struct {
	Rounds         int     // boosting rounds (default 30)
	MaxDepth       int     // maximum tree depth (default 4)
	LearningRate   float64 // shrinkage eta (default 0.2)
	Lambda         float64 // L2 regularization on leaf weights (default 1)
	Gamma          float64 // minimum split gain (default 0)
	MinChildWeight float64 // minimum hessian sum per child (default 1e-3)
	Subsample      float64 // row subsample ratio per tree (default 1)
	ColSample      float64 // column subsample ratio per tree (default 1)
	Classes        int     // number of classes (required, >= 2)
	Seed           int64   // drives subsampling

	// Workers bounds split-finding parallelism (0 = GOMAXPROCS; values
	// above GOMAXPROCS are clamped down to it — extra goroutines past
	// the core count only add channel round-trips). Any value produces
	// bit-identical trees — per-feature histograms are each built by
	// one worker in row order and candidates merge in column order —
	// so it is a pure speed knob and is deliberately excluded from the
	// serialized model.
	Workers int `json:"-"`
}

func (c *Config) defaults() {
	if c.Rounds <= 0 {
		c.Rounds = 30
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 4
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.2
	}
	if c.Lambda <= 0 {
		c.Lambda = 1
	}
	if c.MinChildWeight <= 0 {
		c.MinChildWeight = 1e-3
	}
	if c.Subsample <= 0 || c.Subsample > 1 {
		c.Subsample = 1
	}
	if c.ColSample <= 0 || c.ColSample > 1 {
		c.ColSample = 1
	}
}

// node is one tree node; leaves have Feature == -1.
type node struct {
	Feature     int     // split feature, or -1 for leaf
	Threshold   float64 // go left if x[Feature] < Threshold
	Left, Right int     // child indices within the tree's node slice
	Value       float64 // leaf value (already scaled by learning rate)
}

// Tree is a single regression tree.
type Tree struct {
	Nodes []node
}

// predict returns the leaf value and leaf node index for x.
func (t *Tree) predict(x []float64) (float64, int) {
	i := 0
	for {
		n := &t.Nodes[i]
		if n.Feature < 0 {
			return n.Value, i
		}
		if x[n.Feature] < n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// Model is a trained boosted ensemble.
type Model struct {
	cfg      Config
	features int
	trees    [][]*Tree // [round][class] — the persisted form
	forest   *Forest   // flattened SoA twin of trees, used for inference
}

// NumFeatures returns the feature dimensionality seen at training time.
func (m *Model) NumFeatures() int { return m.features }

// NumTrees returns the total number of trees (rounds × classes).
func (m *Model) NumTrees() int {
	n := 0
	for _, r := range m.trees {
		n += len(r)
	}
	return n
}

// validateTrainingSet shares the input checks between the histogram
// trainer and the retained reference trainer.
func validateTrainingSet(X [][]float64, y []int, cfg Config) (int, error) {
	if cfg.Classes < 2 {
		return 0, fmt.Errorf("gbdt: Classes must be >= 2, got %d", cfg.Classes)
	}
	if len(X) == 0 || len(X) != len(y) {
		return 0, fmt.Errorf("gbdt: bad training set (%d rows, %d labels)", len(X), len(y))
	}
	nf := len(X[0])
	for i, row := range X {
		if len(row) != nf {
			return 0, fmt.Errorf("gbdt: row %d has %d features, want %d", i, len(row), nf)
		}
	}
	for i, l := range y {
		if l < 0 || l >= cfg.Classes {
			return 0, fmt.Errorf("gbdt: label %d out of range at row %d", l, i)
		}
	}
	return nf, nil
}

// Train fits the ensemble to feature rows X and labels y in [0, Classes).
func Train(X [][]float64, y []int, cfg Config) (*Model, error) {
	cfg.defaults()
	nf, err := validateTrainingSet(X, y, cfg)
	if err != nil {
		return nil, err
	}
	n := len(X)
	rng := rand.New(rand.NewSource(cfg.Seed))
	margins := make([][]float64, n) // per-sample per-class raw scores
	for i := range margins {
		margins[i] = make([]float64, cfg.Classes)
	}
	probs := make([]float64, cfg.Classes)
	grad := make([][]float64, cfg.Classes)
	hess := make([][]float64, cfg.Classes)
	for c := 0; c < cfg.Classes; c++ {
		grad[c] = make([]float64, n)
		hess[c] = make([]float64, n)
	}
	m := &Model{cfg: cfg, features: nf}
	tr := newTrainer(X, cfg, nf)
	defer tr.close()
	rows := make([]int, 0, n)
	colBuf := make([]int, 0, nf)
	for round := 0; round < cfg.Rounds; round++ {
		// Softmax gradients/hessians from current margins.
		for i := 0; i < n; i++ {
			tensor.Softmax(margins[i], probs)
			for c := 0; c < cfg.Classes; c++ {
				t := 0.0
				if y[i] == c {
					t = 1
				}
				grad[c][i] = probs[c] - t
				hess[c][i] = math.Max(probs[c]*(1-probs[c]), 1e-12)
			}
		}
		// Row subsample (shared across the round's class trees). The rng
		// consumption order matches trainReference exactly, so the two
		// paths see identical samples.
		rows = rows[:0]
		for i := 0; i < n; i++ {
			if cfg.Subsample >= 1 || rng.Float64() < cfg.Subsample {
				rows = append(rows, i)
			}
		}
		if len(rows) == 0 {
			rows = append(rows, rng.Intn(n))
		}
		// Column subsample.
		colBuf = colBuf[:0]
		for f := 0; f < nf; f++ {
			if cfg.ColSample >= 1 || rng.Float64() < cfg.ColSample {
				colBuf = append(colBuf, f)
			}
		}
		if len(colBuf) == 0 {
			colBuf = append(colBuf, rng.Intn(nf))
		}
		roundTrees := make([]*Tree, cfg.Classes)
		full := len(rows) == n
		for c := 0; c < cfg.Classes; c++ {
			// The builder updates margins[i][c] in place as leaves are
			// created: a sampled row's leaf assignment during the
			// partition IS the leaf prediction would route it to, so the
			// per-round full-predict pass of the exact path collapses to
			// O(1) per sampled row.
			t := tr.buildTree(grad[c], hess[c], rows, colBuf, margins, c)
			roundTrees[c] = t
			if !full {
				// Out-of-sample rows still need a tree walk.
				for _, i := range tr.outOfSample(rows, n) {
					v, _ := t.predict(X[i])
					margins[i][c] += v
				}
			}
		}
		m.trees = append(m.trees, roundTrees)
	}
	m.forest = flatten(m.trees)
	return m, nil
}

// trainer owns the quantized training matrix plus the split-finding
// worker pool and all reusable scratch. One trainer serves every tree of
// a Train call; only the node slice is (re)allocated per tree, since it
// is retained inside the returned Tree.
type trainer struct {
	X       [][]float64
	cfg     Config
	bins    *binning
	workers int

	// Per-tree state installed by buildTree.
	grad, hess []float64
	cols       []int
	margins    [][]float64 // leaf-time margin updates (class cls)
	cls        int
	nodes      []node
	part       []int // stable-partition scratch
	oos        []int // out-of-sample row scratch
	inTree     []bool

	// Split fan-out: workers claim feature slots from next and write
	// results into cands — fixed output placement keeps the merge
	// deterministic regardless of scheduling.
	hists  []*histScratch
	cands  []splitCand
	rows   []int
	nodeG  float64
	nodeH  float64
	next   atomic.Int64
	work   []chan struct{}
	done   chan struct{}
	closed bool
}

// parallelSplitMinRows gates the per-node fan-out: below this row count
// the channel round-trip costs more than the histogram work it spreads.
// Serial and fanned-out nodes compute identical candidates, so the gate
// never affects the trees.
const parallelSplitMinRows = 512

func newTrainer(X [][]float64, cfg Config, nf int) *trainer {
	workers := cfg.Workers
	if workers <= 0 || workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	t := &trainer{
		X:       X,
		cfg:     cfg,
		bins:    buildBins(X, nf),
		workers: workers,
		part:    make([]int, 0, len(X)),
		cands:   make([]splitCand, nf),
		hists:   make([]*histScratch, workers),
	}
	for w := range t.hists {
		t.hists[w] = &histScratch{}
	}
	if workers > 1 {
		t.done = make(chan struct{}, workers)
		t.work = make([]chan struct{}, workers)
		for w := 0; w < workers; w++ {
			t.work[w] = make(chan struct{}, 1)
			go t.workerLoop(w)
		}
	}
	return t
}

// close stops the persistent workers; the trainer must not be used again.
func (t *trainer) close() {
	if t.closed {
		return
	}
	t.closed = true
	for _, ch := range t.work {
		close(ch)
	}
}

// workerLoop claims feature slots of the current node until none remain,
// then acks. Each slot's histogram is built solely by the claiming worker
// (row order fixed), so results do not depend on the claim interleaving.
func (t *trainer) workerLoop(w int) {
	for range t.work[w] {
		t.scanFeatures(w)
		t.done <- struct{}{}
	}
}

// scanFeatures drains the shared feature-slot counter for worker w.
func (t *trainer) scanFeatures(w int) {
	for {
		ci := int(t.next.Add(1)) - 1
		if ci >= len(t.cols) {
			return
		}
		t.cands[ci] = t.featureCandidate(w, t.cols[ci])
	}
}

// featureCandidate builds feature f's histogram over the current node's
// rows and scans it for the best split.
func (t *trainer) featureCandidate(w, f int) splitCand {
	nb := t.bins.counts[f]
	s := t.hists[w]
	s.accumulate(t.bins.codes[f], t.rows, t.grad, t.hess, nb)
	return scanHistogram(s.g[:nb], s.h[:nb], s.c[:nb], t.bins.lo[f], t.bins.hi[f],
		t.nodeG, t.nodeH, t.cfg.Lambda, t.cfg.Gamma, t.cfg.MinChildWeight)
}

// buildTree grows one regression tree over rows, adding each sampled
// row's leaf value to margins[row][cls] as leaves are created. rows is
// permuted in place by the recursive partitioning.
func (t *trainer) buildTree(grad, hess []float64, rows, cols []int, margins [][]float64, cls int) *Tree {
	t.grad, t.hess, t.cols = grad, hess, cols
	t.margins, t.cls = margins, cls
	t.nodes = nil // retained by the returned Tree
	t.split(rows, 0)
	return &Tree{Nodes: t.nodes}
}

// split grows the subtree over the given sample rows and returns its node
// index. rows is reordered in place (stable left|right partition) before
// recursing, so child calls operate on subslices — no per-node allocation.
// The candidate search is the histogram scan of histogram.go, fanned out
// across the worker pool for wide nodes.
func (t *trainer) split(rows []int, depth int) int {
	var G, H float64
	for _, i := range rows {
		G += t.grad[i]
		H += t.hess[i]
	}
	leafValue := -G / (H + t.cfg.Lambda) * t.cfg.LearningRate
	idx := len(t.nodes)
	t.nodes = append(t.nodes, node{Feature: -1, Value: leafValue})
	if depth >= t.cfg.MaxDepth || len(rows) < 2 {
		t.settleLeaf(rows, leafValue)
		return idx
	}
	bestFeat, bestThresh, ok := t.findBestSplit(rows, G, H)
	if !ok {
		t.settleLeaf(rows, leafValue)
		return idx
	}
	// Stable partition rows into left|right around the threshold, keeping
	// the original relative order on both sides (identical trees to the
	// reference construction).
	part := t.part[:0]
	for _, i := range rows {
		if t.X[i][bestFeat] < bestThresh {
			part = append(part, i)
		}
	}
	nl := len(part)
	if nl == 0 || nl == len(rows) {
		t.settleLeaf(rows, leafValue)
		return idx
	}
	for _, i := range rows {
		if !(t.X[i][bestFeat] < bestThresh) {
			part = append(part, i)
		}
	}
	copy(rows, part)
	li := t.split(rows[:nl], depth+1)
	ri := t.split(rows[nl:], depth+1)
	t.nodes[idx] = node{Feature: bestFeat, Threshold: bestThresh, Left: li, Right: ri}
	return idx
}

// settleLeaf applies a finished leaf's value to the sampled rows' margins.
func (t *trainer) settleLeaf(rows []int, leafValue float64) {
	cls := t.cls
	for _, i := range rows {
		t.margins[i][cls] += leafValue
	}
}

// findBestSplit scans every candidate column and merges the per-feature
// winners serially in column order under the strictly-greater-by-1e-12
// rule, so the chosen split is independent of both worker count and
// scheduling.
func (t *trainer) findBestSplit(rows []int, G, H float64) (feat int, thresh float64, ok bool) {
	t.rows, t.nodeG, t.nodeH = rows, G, H
	cands := t.cands[:len(t.cols)]
	if t.workers > 1 && len(rows) >= parallelSplitMinRows && len(t.cols) > 1 {
		t.next.Store(0)
		for _, ch := range t.work {
			ch <- struct{}{}
		}
		for range t.work {
			<-t.done
		}
	} else {
		for ci, f := range t.cols {
			cands[ci] = t.featureCandidate(0, f)
		}
	}
	bestGain := t.cfg.Gamma
	feat = -1
	for ci, c := range cands {
		if c.ok && c.gain > bestGain+1e-12 {
			bestGain = c.gain
			feat = t.cols[ci]
			thresh = c.thresh
		}
	}
	return feat, thresh, feat >= 0
}

// outOfSample returns the rows NOT in the sorted-ascending sample set
// rows (callers use it only when subsampling dropped rows).
func (t *trainer) outOfSample(rows []int, n int) []int {
	if cap(t.inTree) < n {
		t.inTree = make([]bool, n)
	}
	mask := t.inTree[:n]
	for i := range mask {
		mask[i] = false
	}
	for _, i := range rows {
		mask[i] = true
	}
	oos := t.oos[:0]
	for i := 0; i < n; i++ {
		if !mask[i] {
			oos = append(oos, i)
		}
	}
	t.oos = oos
	return oos
}

// Margins returns the raw per-class boosted scores for x.
func (m *Model) Margins(x []float64) []float64 {
	out := make([]float64, m.cfg.Classes)
	m.MarginsInto(x, out)
	return out
}

// MarginsInto writes the raw per-class boosted scores for x into dst
// (length Classes) without allocating.
func (m *Model) MarginsInto(x []float64, dst []float64) {
	m.forest.MarginsInto(x, dst[:m.cfg.Classes])
}

// PredictProba returns softmax class probabilities for x.
func (m *Model) PredictProba(x []float64) []float64 {
	out := make([]float64, m.cfg.Classes)
	m.PredictProbaInto(x, out)
	return out
}

// PredictProbaInto writes softmax class probabilities for x into dst
// (length Classes). dst doubles as the margin scratch, so steady-state
// inference performs no heap allocation.
func (m *Model) PredictProbaInto(x []float64, dst []float64) {
	m.MarginsInto(x, dst)
	tensor.Softmax(dst, dst)
}

// Predict returns the argmax class for x.
func (m *Model) Predict(x []float64) int {
	return tensor.ArgMax(m.Margins(x))
}

// LeafValues returns the concatenated leaf values reached by x in every
// tree (rounds × classes values, in round-major order). This is the
// GBDT-as-feature-transform embedding of He et al. used by LoCEC-XGB.
func (m *Model) LeafValues(x []float64) []float64 {
	out := make([]float64, m.forest.NumTrees())
	m.forest.LeafValuesInto(x, out)
	return out
}

// LeafValuesInto writes each tree's leaf value for x into dst (length
// NumTrees) without allocating.
func (m *Model) LeafValuesInto(x []float64, dst []float64) {
	m.forest.LeafValuesInto(x, dst)
}

// LeafIndices returns the leaf node index reached by x in every tree.
func (m *Model) LeafIndices(x []float64) []int {
	out := make([]int, 0, m.forest.NumTrees())
	for ti := range m.forest.Roots {
		_, i := m.forest.walk(ti, x)
		out = append(out, int(i))
	}
	return out
}
