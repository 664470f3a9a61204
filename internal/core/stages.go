package core

import (
	"fmt"
	"slices"
	"sync"

	"locec/internal/graph"
	"locec/internal/logreg"
	"locec/internal/parallel"
	"locec/internal/social"
)

// This file is the staged decomposition of the three-phase pipeline. Run
// composes the stages below with the two training steps between them;
// every frozen-model path goes through one step, refresh, over a node set
// instead of the whole graph, so there is exactly one implementation of
// each phase for both the batch and the live path.
//
//	Run:            Divide → TrainClassifier → ClassifyCommunities
//	                → TrainCombiner → RecombineEdges(all edges)
//	RunFrozen:      refresh(every node, every edge, nothing removed)
//	ApplyMutations: overlay + dataset delta, then
//	                refresh(dirty nodes, their incident edges, removed edges)

// TrainClassifier is the Phase II training stage: fit the community
// classifier on every community whose ground truth is derivable from
// revealed ego-edge labels.
func (p *Pipeline) TrainClassifier(ds *social.Dataset, comms []*LocalCommunity) error {
	var trainComms []*LocalCommunity
	var trainLabels []social.Label
	for _, c := range comms {
		if l := c.TruthLabel(); l.Valid() {
			trainComms = append(trainComms, c)
			trainLabels = append(trainLabels, l)
		}
	}
	if err := p.cfg.Classifier.Fit(ds, trainComms, trainLabels); err != nil {
		return fmt.Errorf("core: phase II training: %w", err)
	}
	return nil
}

// ClassifyCommunities is the Phase II inference stage: fill Probs on the
// given communities with the pipeline's (already trained) classifier. Run
// classifies every community once with it; refresh classifies with the
// frozen model a result carries.
func (p *Pipeline) ClassifyCommunities(ds *social.Dataset, comms []*LocalCommunity) {
	p.cfg.Classifier.Classify(ds, comms)
}

// TrainCombiner is the Phase III training stage: fit the logistic
// regression on the revealed edges' raw features and install it on the
// result. The training matrix exists once: every edge's row [1, f⟨u,v⟩]
// goes into one arena, and logreg.TrainRows standardises that arena in
// place, holds out a seeded tenth of the rows and stops when their loss
// stops falling — cfg.Combiner.Epochs is only the cap, and
// res.Combiner.EpochsRun says where the fit ended. Under the
// agreement-rule ablation there is nothing to train.
func (p *Pipeline) TrainCombiner(ds *social.Dataset, res *Result) error {
	if p.cfg.AgreementRule {
		return nil
	}
	labeled := ds.LabeledEdges()
	if len(labeled) == 0 {
		return fmt.Errorf("core: phase III requires labeled edges")
	}
	// Every row has the same width (bias, 2 tightness values, two
	// class-probability vectors r_C), so the first row sizes the arena. A
	// row of another width — an endpoint community with no Probs — would
	// shift every later row, and is refused.
	var rows []float64
	y := make([]int, len(labeled))
	fw := 0
	for i, k := range labeled {
		e := graph.EdgeFromKey(k)
		rows = AppendEdgeFeatures(append(rows, 1), res.Egos, e.U, e.V)
		if i == 0 {
			fw = len(rows)
			rows = append(make([]float64, 0, len(labeled)*fw), rows...)
		} else if len(rows) != (i+1)*fw {
			first := graph.EdgeFromKey(labeled[0])
			return fmt.Errorf("core: phase III training: edge (%d,%d) has %d features, edge (%d,%d) has %d",
				e.U, e.V, len(rows)-i*fw-1, first.U, first.V, fw-1)
		}
		y[i] = int(ds.TrueLabel(k))
	}
	lr, err := logreg.TrainRows(rows, y, p.cfg.Combiner)
	if err != nil {
		return fmt.Errorf("core: phase III training: %w", err)
	}
	res.Combiner = lr
	return nil
}

// predictBlockRows is the number of edges a prediction worker assembles
// into one feature panel before running the GEMM. Large enough to amortize
// the kernel's per-call setup, small enough that the panel (256 × 9
// float64 ≈ 18 KB at combiner scale) stays cache-resident while the
// softmax pass re-reads it.
const predictBlockRows = 256

// predictEdges is the shared Phase III prediction kernel: fill preds[i]
// and probsFlat[i*classes:(i+1)*classes] for every listed edge from the
// result's classified egos, using the trained combiner (or the
// agreement-rule ablation). It fans out in one contiguous chunk per
// worker; each worker assembles its edges' feature rows into a pooled
// [1, features...] panel of predictBlockRows rows and runs one GEMM
// + row-wise softmax per panel (logreg.PredictProbaBlock) instead of a
// GEMV per edge, writing probabilities straight into its disjoint slice of
// probsFlat. The block path accumulates each row's logits in the same
// order as PredictProbaInto, so predictions and probabilities are
// bit-identical to the old per-edge loop.
func (p *Pipeline) predictEdges(res *Result, edges []graph.Edge, preds []social.Label, probsFlat []float64, classes int) {
	if p.cfg.AgreementRule {
		p.predictEdgesByAgreement(res, edges, preds, probsFlat, classes)
		return
	}
	lr := res.Combiner
	fw := lr.BiasFirstLen()
	wb := lr.BiasFirst(nil)
	parallel.For(len(edges), 0, func(lo, hi int) {
		pb := panelPool.Get().(*[]float64)
		xb := slices.Grow((*pb)[:0], min(hi-lo, predictBlockRows)*fw)
		for b0 := lo; b0 < hi; b0 += predictBlockRows {
			b1 := b0 + predictBlockRows
			if b1 > hi {
				b1 = hi
			}
			xb = xb[:0]
			for i := b0; i < b1; i++ {
				e := edges[i]
				xb = append(xb, 1)
				xb = AppendEdgeFeatures(xb, res.Egos, e.U, e.V)
			}
			lr.PredictProbaBlock(wb, xb, b1-b0, probsFlat[b0*classes:b1*classes])
			for i := b0; i < b1; i++ {
				preds[i] = social.Label(Argmax(probsFlat[i*classes : (i+1)*classes]))
			}
		}
		*pb = xb
		panelPool.Put(pb)
	})
}

// panelPool recycles predictEdges' feature panels across calls and
// workers, so a warm mutation epoch builds its panel in one it already has.
var panelPool = sync.Pool{New: func() any { return new([]float64) }}

// predictEdgesByAgreement labels every listed edge with the ablation rule:
// agreeing endpoint communities decide directly; disagreements fall back
// to the tightness-weighted sum of the two probability vectors.
func (p *Pipeline) predictEdgesByAgreement(res *Result, edges []graph.Edge, preds []social.Label, probsFlat []float64, classes int) {
	parallel.For(len(edges), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u, v := edges[i].U, edges[i].V
			cu, tu := res.Egos[v].CommunityOf(u)
			cv, tv := res.Egos[u].CommunityOf(v)
			blended := probsFlat[i*classes : (i+1)*classes]
			total := 0.0
			for c := 0; c < classes; c++ {
				blended[c] = tu*cu.Probs[c] + tv*cv.Probs[c]
				total += blended[c]
			}
			if total > 0 {
				for c := range blended {
					blended[c] /= total
				}
			}
			lu := social.Label(Argmax(cu.Probs))
			lv := social.Label(Argmax(cv.Probs))
			if lu == lv {
				preds[i] = lu
			} else {
				preds[i] = social.Label(Argmax(blended))
			}
		}
	})
}

// RecombineEdges is the Phase III prediction stage: predict the listed
// edges with the already-trained combiner (or the agreement rule) and
// merge them into res.Edges, other edges keeping their entries. The merge
// builds a new store — the previous one (possibly shared with a published
// snapshot) is never written in place.
func (p *Pipeline) RecombineEdges(res *Result, edges []graph.Edge) error {
	return p.recombine(res, edges, nil)
}

// recombine is refresh's Phase III tail: predict the listed edges against
// res's classified egos and splice them into res.Edges with the removed
// keys (ascending) dropped, in one splice.
func (p *Pipeline) recombine(res *Result, edges []graph.Edge, removed []uint64) error {
	var fresh edgeRun
	if len(edges) > 0 {
		if !p.cfg.AgreementRule && res.Combiner == nil {
			return fmt.Errorf("core: recombine: result has no trained combiner")
		}
		classes := social.NumLabels
		if !p.cfg.AgreementRule {
			classes = res.Combiner.Classes
		}
		preds := make([]social.Label, len(edges))
		probsFlat := make([]float64, len(edges)*classes)
		p.predictEdges(res, edges, preds, probsFlat, classes)
		fresh = sortedRun(edges, preds, probsFlat, classes)
	}
	res.Edges = res.Edges.spliced(removed, fresh)
	return nil
}

// refresh is the one step that turns a node set into spliced predictions
// with res's models and division rule frozen: re-divide the nodes' egos,
// classify their communities, recombine edges — every surviving edge
// incident to a listed node — and return the communities it classified.
func (p *Pipeline) refresh(ds *social.Dataset, res *Result, nodes []graph.NodeID, edges []graph.Edge, removed []uint64) ([]*LocalCommunity, error) {
	DivideNodes(ds, res.Egos, nodes, res.Division)
	var comms []*LocalCommunity
	for _, u := range nodes {
		comms = append(comms, res.Egos[u].Comms...)
	}
	res.Classifier.Classify(ds, comms)
	return comms, p.recombine(res, edges, removed)
}

// RunFrozen re-executes the pipeline's compute phases with trained's
// models frozen: refresh over every node and every edge of an empty
// result, no training anywhere. It is the reference VerifyIncremental
// holds the incremental engine to: both run the same step, but RunFrozen
// picks its node and edge sets without the dirty-set and incident-edge
// rules, so any divergence is a propagation bug, not a model drift.
func (p *Pipeline) RunFrozen(ds *social.Dataset, trained *Result) (*Result, error) {
	if trained == nil || trained.Classifier == nil {
		return nil, fmt.Errorf("core: run frozen: result carries no trained classifier")
	}
	res := &Result{
		ClassifierName: trained.ClassifierName,
		Classifier:     trained.Classifier,
		Combiner:       trained.Combiner,
		Division:       trained.Division,
		Egos:           make([]*EgoResult, ds.G.NumNodes()),
	}
	nodes := make([]graph.NodeID, ds.G.NumNodes())
	for u := range nodes {
		nodes[u] = graph.NodeID(u)
	}
	comms, err := p.refresh(ds, res, nodes, ds.G.Edges(), nil)
	if err != nil {
		return nil, fmt.Errorf("core: run frozen: %w", err)
	}
	res.Communities = comms
	return res, nil
}
