package gbdt

// Retained direct-accumulation histogram trainer, kept the way
// split_reference_test.go keeps the exact one: trainHistReference is the
// trainer Train replaced, statement for statement minus its worker pool
// (which never changed a bit) — every node's histogram is accumulated
// from the node's own rows, one feature at a time, gathering grad[r] and
// hess[r] through the row index; the partition is two passes through
// X[i][f]; a node sums its own G and H. No sibling subtraction, no
// node-ordered gradients, no column copy. TestTrainMatchesHistReference
// holds Train to byte-identical serialized models against it.
//
// Both trainers share one property that the bytes depend on, so it is
// stated here too: rows is shared by the classes of a round and permuted
// in place by every tree, so class c+1's tree sums its root — and every
// node under it — in the order class c's tree left behind. Resetting the
// order per tree is a different summation order, hence different last
// bits in leaf values, hence a different model.

import (
	"math"
	"math/rand"

	"locec/internal/tensor"
)

func trainHistReference(X [][]float64, y []int, cfg Config) (*Model, error) {
	cfg.defaults()
	nf, err := validateTrainingSet(X, y, cfg)
	if err != nil {
		return nil, err
	}
	n := len(X)
	rng := rand.New(rand.NewSource(cfg.Seed))
	margins := make([][]float64, n)
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
	b := &histRefBuilder{X: X, cfg: cfg, bins: buildBins(X, nf)}
	rows := make([]int, 0, n)
	colBuf := make([]int, 0, nf)
	for round := 0; round < cfg.Rounds; round++ {
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
		rows = rows[:0]
		for i := 0; i < n; i++ {
			if cfg.Subsample >= 1 || rng.Float64() < cfg.Subsample {
				rows = append(rows, i)
			}
		}
		if len(rows) == 0 {
			rows = append(rows, rng.Intn(n))
		}
		colBuf = colBuf[:0]
		for f := 0; f < nf; f++ {
			if cfg.ColSample >= 1 || rng.Float64() < cfg.ColSample {
				colBuf = append(colBuf, f)
			}
		}
		if len(colBuf) == 0 {
			colBuf = append(colBuf, rng.Intn(nf))
		}
		inSample := make([]bool, n)
		for _, i := range rows {
			inSample[i] = true
		}
		roundTrees := make([]*Tree, cfg.Classes)
		for c := 0; c < cfg.Classes; c++ {
			t := b.buildTree(grad[c], hess[c], rows, colBuf, margins, c)
			roundTrees[c] = t
			for i := 0; i < n; i++ {
				if !inSample[i] {
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

type histRefBuilder struct {
	X    [][]float64
	cfg  Config
	bins *binning

	grad, hess []float64
	cols       []int
	margins    [][]float64
	cls        int
	nodes      []node
	part       []int
	hg, hh     [maxBins]float64
	hc         [maxBins]int32
}

func (b *histRefBuilder) buildTree(grad, hess []float64, rows, cols []int, margins [][]float64, cls int) *Tree {
	b.grad, b.hess, b.cols = grad, hess, cols
	b.margins, b.cls = margins, cls
	b.nodes = nil
	b.split(rows, 0)
	return &Tree{Nodes: b.nodes}
}

func (b *histRefBuilder) split(rows []int, depth int) int {
	var G, H float64
	for _, i := range rows {
		G += b.grad[i]
		H += b.hess[i]
	}
	leafValue := -G / (H + b.cfg.Lambda) * b.cfg.LearningRate
	idx := len(b.nodes)
	b.nodes = append(b.nodes, node{Feature: -1, Value: leafValue})
	if depth >= b.cfg.MaxDepth || len(rows) < 2 {
		b.settleLeaf(rows, leafValue)
		return idx
	}
	bestFeat, bestThresh, ok := b.findBestSplit(rows, G, H)
	if !ok {
		b.settleLeaf(rows, leafValue)
		return idx
	}
	part := b.part[:0]
	for _, i := range rows {
		if b.X[i][bestFeat] < bestThresh {
			part = append(part, i)
		}
	}
	nl := len(part)
	if nl == 0 || nl == len(rows) {
		b.settleLeaf(rows, leafValue)
		return idx
	}
	for _, i := range rows {
		if !(b.X[i][bestFeat] < bestThresh) {
			part = append(part, i)
		}
	}
	b.part = part
	copy(rows, part)
	li := b.split(rows[:nl], depth+1)
	ri := b.split(rows[nl:], depth+1)
	b.nodes[idx] = node{Feature: bestFeat, Threshold: bestThresh, Left: li, Right: ri}
	return idx
}

func (b *histRefBuilder) settleLeaf(rows []int, leafValue float64) {
	for _, i := range rows {
		b.margins[i][b.cls] += leafValue
	}
}

func (b *histRefBuilder) findBestSplit(rows []int, G, H float64) (feat int, thresh float64, ok bool) {
	bestGain := b.cfg.Gamma
	feat = -1
	for _, f := range b.cols {
		nb := b.bins.counts[f]
		hg, hh, hc := b.hg[:nb], b.hh[:nb], b.hc[:nb]
		for i := range hg {
			hg[i], hh[i], hc[i] = 0, 0, 0
		}
		codes := b.bins.codes[f]
		for _, r := range rows {
			k := codes[r]
			hg[k] += b.grad[r]
			hh[k] += b.hess[r]
			hc[k]++
		}
		c := scanHistogram(hg, hh, hc, b.bins.lo[f], b.bins.hi[f], G, H, b.cfg.Lambda, b.cfg.Gamma, b.cfg.MinChildWeight)
		if c.ok && c.gain > bestGain+1e-12 {
			bestGain = c.gain
			feat = f
			thresh = c.thresh
		}
	}
	return feat, thresh, feat >= 0
}
