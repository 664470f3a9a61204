// Package gbdt implements an XGBoost-style gradient boosted decision tree
// learner (Chen & Guestrin 2016): second-order gradient statistics,
// histogram-binned greedy split finding with the regularized gain formula,
// shrinkage, and row/column subsampling. Multi-class problems use the
// softmax objective with one regression tree per class per round.
//
// Split finding runs over per-feature histograms (≤256 bins, quantized
// once before boosting — see histogram.go). A tree carries its rows as one
// index array with each row's gradient and hessian stored beside it in
// node order; a split is one stable pass of that array against a
// feature-major column, which also sums the two children's G and H; only
// the smaller child's histogram is accumulated from rows, the sibling's is
// parent − child. The trainer is deterministic by construction and serial
// but for the per-column binning, whose width (GOMAXPROCS) cannot change a
// bit. Two oracles are retained as tests: the exact sort-based enumeration
// (split_reference_test.go) and the direct-accumulation histogram trainer
// this one replaced (hist_reference_test.go).
//
// Row order carries over between the trees of a round. The sampled row
// array is shared by the round's class trees and each tree's partitions
// permute it in place, so class c+1's tree sums its root — and so every
// node below it — in the order class c's tree left behind, not in
// ascending row order. Leaf values depend on that order in their last bit,
// so it is part of what "the same model" means here (both oracles do the
// same, and resetting the order per tree changes the serialized bytes);
// it is also the one thing that makes the class trees of a round
// sequential.
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
	"slices"

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

	// Workers has no effect: nothing reads it. The per-node worker pool it
	// sized is gone — it never beat the serial trainer on the hardware it
	// was measured on — and the one fan-out left (per-column binning) is a
	// parallel.For at GOMAXPROCS. The field stays declared, and out of the
	// serialized model, because benchmark/batch.go assigns it; removing it
	// is a [benchmark] follow-up (ROADMAP 1(a)/(b)).
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

// NumClasses returns the number of classes the model scores.
func (m *Model) NumClasses() int { return m.cfg.Classes }

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
	n, classes := len(X), cfg.Classes
	rng := rand.New(rand.NewSource(cfg.Seed))
	margins := make([]float64, n*classes) // per-sample per-class raw scores, sample-major
	probs := make([]float64, classes)
	grad := make([]float64, classes*n) // class-major: class c's gradients are grad[c*n:(c+1)*n]
	hess := make([]float64, classes*n)
	m := &Model{cfg: cfg, features: nf}
	tr := newTrainer(buildBins(X, nf), cfg, margins)
	rows := make([]int32, 0, n)
	var oos []int // the round's out-of-sample rows
	colBuf := make([]int, 0, nf)
	for round := 0; round < cfg.Rounds; round++ {
		// Softmax gradients/hessians from current margins.
		for i := 0; i < n; i++ {
			tensor.Softmax(margins[i*classes:(i+1)*classes], probs)
			for c, p := range probs {
				t := 0.0
				if y[i] == c {
					t = 1
				}
				grad[c*n+i] = p - t
				hess[c*n+i] = math.Max(p*(1-p), 1e-12)
			}
		}
		// Row subsample (shared across the round's class trees). The rng
		// consumption order matches trainReference exactly, so the two
		// paths see identical samples.
		rows, oos = rows[:0], oos[:0]
		for i := 0; i < n; i++ {
			if cfg.Subsample >= 1 || rng.Float64() < cfg.Subsample {
				rows = append(rows, int32(i))
			} else {
				oos = append(oos, i)
			}
		}
		if len(rows) == 0 {
			i := rng.Intn(n)
			rows = append(rows, int32(i))
			oos = slices.Delete(oos, i, i+1) // every row is out: oos[i] == i
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
		roundTrees := make([]*Tree, classes)
		for c := 0; c < classes; c++ {
			// The builder updates class c's margin of a sampled row in
			// place as leaves are created: the row's leaf assignment
			// during the partition IS the leaf prediction would route it
			// to, so the per-round full-predict pass of the exact path
			// collapses to O(1) per sampled row.
			t := tr.buildTree(grad[c*n:(c+1)*n], hess[c*n:(c+1)*n], rows, colBuf, c)
			roundTrees[c] = t
			// Out-of-sample rows still need a tree walk.
			for _, i := range oos {
				v, _ := t.predict(X[i])
				margins[i*classes+c] += v
			}
		}
		m.trees = append(m.trees, roundTrees)
	}
	m.forest = flatten(m.trees)
	return m, nil
}

// trainer owns the quantized training matrix and all reusable scratch.
// One trainer serves every tree of a Train call; only the node slice is
// (re)allocated per tree, since it is retained inside the returned Tree.
type trainer struct {
	cfg     Config
	bins    *binning
	margins []float64 // sample-major, cfg.Classes per sample

	// Per-tree state installed by buildTree. rows is the tree's one index
	// array; g[i] and h[i] are the gradient and hessian of row rows[i],
	// moved with it by every partition, so a node — a range [lo, hi) of
	// the three — reads them sequentially.
	rows  []int32
	g, h  []float64
	cols  []int
	cls   int
	nodes []node

	// Right-hand side of the partition in progress.
	partRows []int32
	partG    []float64
	partH    []float64

	free []*histogram // histograms no live node owns
}

func newTrainer(bins *binning, cfg Config, margins []float64) *trainer {
	n := len(margins) / cfg.Classes
	return &trainer{
		cfg:      cfg,
		bins:     bins,
		margins:  margins,
		g:        make([]float64, n),
		h:        make([]float64, n),
		partRows: make([]int32, n),
		partG:    make([]float64, n),
		partH:    make([]float64, n),
	}
}

// buildTree grows one regression tree over rows for class cls, adding each
// sampled row's leaf value to its margin as leaves are created. rows is
// permuted in place by the recursive partitioning and is NOT put back: the
// next class's tree of the round starts from the order this one left (see
// the package comment).
func (t *trainer) buildTree(grad, hess []float64, rows []int32, cols []int, cls int) *Tree {
	t.rows, t.cols, t.cls = rows, cols, cls
	t.nodes = nil // retained by the returned Tree
	var G, H float64
	for i, r := range rows {
		t.g[i], t.h[i] = grad[r], hess[r]
		G += grad[r]
		H += hess[r]
	}
	var hs *histogram
	if len(rows) >= 2 {
		hs = t.histogram()
		hs.accumulate(t.bins, cols, rows, t.g, t.h)
	}
	t.split(0, len(rows), 0, G, H, hs)
	return &Tree{Nodes: t.nodes}
}

// histogram takes a histogram off the free list, or makes one. A tree
// holds at most MaxDepth+1 at a time, so the list stays that short.
func (t *trainer) histogram() *histogram {
	if k := len(t.free) - 1; k >= 0 {
		hs := t.free[k]
		t.free = t.free[:k]
		return hs
	}
	return newHistogram(len(t.bins.counts))
}

// split grows the subtree over rows[lo:hi] — gradient sum G, hessian sum H,
// both taken over those rows in their stored order — and returns its node
// index. hs is the node's histogram; nil says the node may not split (it
// is at MaxDepth or has under 2 rows). The rows are reordered in place
// (stable left|right partition) before recursing, so children are
// subranges — no per-node allocation.
func (t *trainer) split(lo, hi, depth int, G, H float64, hs *histogram) int {
	leafValue := -G / (H + t.cfg.Lambda) * t.cfg.LearningRate
	idx := len(t.nodes)
	t.nodes = append(t.nodes, node{Feature: -1, Value: leafValue})
	if hs == nil {
		t.settleLeaf(lo, hi, leafValue)
		return idx
	}
	feat, thresh, ok := t.findBestSplit(hs, G, H)
	var left, right childSums
	if ok {
		left, right = t.partition(lo, hi, t.bins.vals[feat], thresh)
	}
	if left.n == 0 || right.n == 0 {
		t.free = append(t.free, hs)
		t.settleLeaf(lo, hi, leafValue)
		return idx
	}
	mid := lo + left.n
	lh, rh := t.childHistograms(hs, lo, mid, hi, depth+1)
	li := t.split(lo, mid, depth+1, left.G, left.H, lh)
	ri := t.split(mid, hi, depth+1, right.G, right.H, rh)
	t.nodes[idx] = node{Feature: feat, Threshold: thresh, Left: li, Right: ri}
	return idx
}

// childHistograms turns the histogram hs of the node over rows[lo:hi] into
// those of its children rows[lo:mid] and rows[mid:hi] at the given depth:
// nil for a child that may not split; otherwise the smaller child (the
// left one on equal sizes) is accumulated from its rows and the larger
// keeps hs, less what the smaller took out of it.
func (t *trainer) childHistograms(hs *histogram, lo, mid, hi, depth int) (lh, rh *histogram) {
	nl, nr := mid-lo, hi-mid
	if depth >= t.cfg.MaxDepth || max(nl, nr) < 2 {
		t.free = append(t.free, hs)
		return nil, nil
	}
	small := t.histogram()
	if nl <= nr {
		small.accumulate(t.bins, t.cols, t.rows[lo:mid], t.g[lo:mid], t.h[lo:mid])
		lh, rh = small, hs
	} else {
		small.accumulate(t.bins, t.cols, t.rows[mid:hi], t.g[mid:hi], t.h[mid:hi])
		lh, rh = hs, small
	}
	hs.subtract(small, t.bins, t.cols)
	if min(nl, nr) < 2 {
		// The one-row child was accumulated for the subtraction only.
		t.free = append(t.free, small)
		if nl <= nr {
			lh = nil
		} else {
			rh = nil
		}
	}
	return lh, rh
}

// childSums is one side of a partition: its row count and its gradient
// and hessian sums, added in the side's row order starting from zero —
// the terms and the order a loop over the child's rows would use.
type childSums struct {
	n    int
	G, H float64
}

// partition reorders rows[lo:hi], with their g and h, into the rows whose
// column value is below thresh followed by the rest, both sides keeping
// their relative order (identical trees to the reference construction),
// in one pass: left rows move down in place — the write index never passes
// the read index — and right rows wait in the part* scratch. A NaN value
// compares false and goes right, as in Forest.walk.
func (t *trainer) partition(lo, hi int, col []float64, thresh float64) (left, right childSums) {
	rows, g, h := t.rows, t.g, t.h
	l, r := lo, 0
	for i := lo; i < hi; i++ {
		row, gv, hv := rows[i], g[i], h[i]
		if col[row] < thresh {
			rows[l], g[l], h[l] = row, gv, hv
			left.G += gv
			left.H += hv
			l++
		} else {
			t.partRows[r], t.partG[r], t.partH[r] = row, gv, hv
			right.G += gv
			right.H += hv
			r++
		}
	}
	copy(rows[l:hi], t.partRows[:r])
	copy(g[l:hi], t.partG[:r])
	copy(h[l:hi], t.partH[:r])
	left.n, right.n = l-lo, r
	return left, right
}

// settleLeaf applies a finished leaf's value to the sampled rows' margins.
func (t *trainer) settleLeaf(lo, hi int, leafValue float64) {
	classes, cls := t.cfg.Classes, t.cls
	for _, r := range t.rows[lo:hi] {
		t.margins[int(r)*classes+cls] += leafValue
	}
}

// findBestSplit scans the node's histogram of every candidate column and
// merges the per-feature winners in column order under the
// strictly-greater-by-1e-12 rule.
func (t *trainer) findBestSplit(hs *histogram, G, H float64) (feat int, thresh float64, ok bool) {
	bestGain := t.cfg.Gamma
	feat = -1
	for _, f := range t.cols {
		hg, hh, hc := hs.feature(f, t.bins.counts[f])
		c := scanHistogram(hg, hh, hc, t.bins.lo[f], t.bins.hi[f], G, H, t.cfg.Lambda, t.cfg.Gamma, t.cfg.MinChildWeight)
		if c.ok && c.gain > bestGain+1e-12 {
			bestGain = c.gain
			feat = f
			thresh = c.thresh
		}
	}
	return feat, thresh, feat >= 0
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

// ProbaFromLeavesInto writes into dst (length NumClasses) the class
// probabilities of the input whose LeafValues are leaves, without walking
// the forest again: the leaf values are added into their class margins in
// tree order — the additions MarginsInto performs — then softmaxed, so dst
// equals PredictProba of that input bit for bit.
func (m *Model) ProbaFromLeavesInto(leaves, dst []float64) {
	dst = dst[:m.cfg.Classes]
	clear(dst)
	for ti, v := range leaves {
		dst[ti%len(dst)] += v
	}
	tensor.Softmax(dst, dst)
}

// LeafValuesInto writes each tree's leaf value for x into dst (length
// NumTrees) without allocating.
func (m *Model) LeafValuesInto(x []float64, dst []float64) {
	m.forest.LeafValuesInto(x, dst)
}
