package gbdt

// Retained exact sort-based GBDT trainer, mirroring nn/conv_reference_test.go:
// trainReference is the pre-histogram implementation kept verbatim so the
// equivalence tests can assert the histogram-binned parallel path produces
// identical trees on small inputs and 1e-12-close predictions everywhere.
// It sorts (value,row) pairs at every node — O(rows·log rows) per feature
// per node — and is never called on a hot path.

import (
	"math"
	"math/rand"
	"slices"

	"locec/internal/tensor"
)

// trainReference fits the ensemble with the exact greedy split search.
// Its RNG consumption order, tie-breaking, and partition order match
// Train exactly; only the split-search data structure differs.
func trainReference(X [][]float64, y []int, cfg Config) (*Model, error) {
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
	b := &refBuilder{X: X, cfg: cfg}
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
		roundTrees := make([]*Tree, cfg.Classes)
		for c := 0; c < cfg.Classes; c++ {
			t := b.buildTree(grad[c], hess[c], rows, colBuf)
			roundTrees[c] = t
			for i := 0; i < n; i++ {
				v, _ := t.predict(X[i])
				margins[i][c] += v
			}
		}
		m.trees = append(m.trees, roundTrees)
	}
	m.forest = flatten(m.trees)
	return m, nil
}

// refBuilder carries the training set plus reusable split-finding scratch
// for the exact reference path.
type refBuilder struct {
	X     [][]float64
	grad  []float64
	hess  []float64
	cols  []int
	cfg   Config
	nodes []node
	vals  []fv  // per-node (value,row) sort scratch
	part  []int // stable-partition scratch
}

// fv pairs one sample's feature value with its row index for split sorting.
type fv struct {
	v   float64
	row int
}

// buildTree grows one regression tree over rows. rows is permuted in place
// by the recursive partitioning.
func (b *refBuilder) buildTree(grad, hess []float64, rows, cols []int) *Tree {
	b.grad, b.hess, b.cols = grad, hess, cols
	b.nodes = nil // retained by the returned Tree
	if cap(b.vals) < len(rows) {
		b.vals = make([]fv, 0, len(rows))
	}
	if cap(b.part) < len(rows) {
		b.part = make([]int, 0, len(rows))
	}
	b.split(rows, 0)
	return &Tree{Nodes: b.nodes}
}

// split grows the subtree over the given sample rows and returns its node
// index, sorting (value,row) pairs per candidate feature — the exact
// enumeration the histogram path must reproduce.
func (b *refBuilder) split(rows []int, depth int) int {
	var G, H float64
	for _, i := range rows {
		G += b.grad[i]
		H += b.hess[i]
	}
	leafValue := -G / (H + b.cfg.Lambda) * b.cfg.LearningRate
	idx := len(b.nodes)
	b.nodes = append(b.nodes, node{Feature: -1, Value: leafValue})
	if depth >= b.cfg.MaxDepth || len(rows) < 2 {
		return idx
	}
	bestGain := b.cfg.Gamma
	bestFeat := -1
	bestThresh := 0.0
	parentScore := G * G / (H + b.cfg.Lambda)
	for _, f := range b.cols {
		vals := b.vals[:0]
		for _, i := range rows {
			vals = append(vals, fv{b.X[i][f], i})
		}
		slices.SortFunc(vals, func(a, c fv) int {
			switch {
			case a.v < c.v:
				return -1
			case a.v > c.v:
				return 1
			default:
				return 0
			}
		})
		var GL, HL float64
		for k := 0; k < len(vals)-1; k++ {
			GL += b.grad[vals[k].row]
			HL += b.hess[vals[k].row]
			if vals[k].v == vals[k+1].v {
				continue // cannot split between equal values
			}
			GR, HR := G-GL, H-HL
			if HL < b.cfg.MinChildWeight || HR < b.cfg.MinChildWeight {
				continue
			}
			gain := 0.5 * (GL*GL/(HL+b.cfg.Lambda) + GR*GR/(HR+b.cfg.Lambda) - parentScore)
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestFeat = f
				bestThresh = (vals[k].v + vals[k+1].v) / 2
			}
		}
	}
	if bestFeat < 0 {
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
		return idx
	}
	for _, i := range rows {
		if !(b.X[i][bestFeat] < bestThresh) {
			part = append(part, i)
		}
	}
	copy(rows, part)
	li := b.split(rows[:nl], depth+1)
	ri := b.split(rows[nl:], depth+1)
	b.nodes[idx] = node{Feature: bestFeat, Threshold: bestThresh, Left: li, Right: ri}
	return idx
}
