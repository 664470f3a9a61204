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
// is a thin composition of the stages below; the incremental engine
// (incremental.go) composes the same stages over a dirty subset instead of
// the whole graph, so there is exactly one implementation of each phase
// for both the batch and the live path.
//
//	full run:     DivideNodes(all) → TrainClassifier → ClassifyCommunities(all)
//	              → TrainCombiner → RecombineEdges(all)
//	incremental:  DivideNodes(dirty) → ClassifyCommunities(dirty, frozen model)
//	              → RecombineEdges(dirty, frozen combiner)

// DivideNodes is the Phase I stage on this pipeline's division config:
// recompute the listed nodes' ego results in place (see the package-level
// DivideNodes for the seam contract).
func (p *Pipeline) DivideNodes(ds *social.Dataset, egos []*EgoResult, nodes []graph.NodeID) {
	DivideNodes(ds, egos, nodes, p.cfg.Division)
}

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

// ClassifyCommunities is the Phase II inference stage: fill Probs and
// Result on the given communities with the pipeline's (already trained)
// classifier. The full run classifies every community once; the
// incremental engine re-classifies only the communities of dirty ego
// networks against the frozen model.
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
	// fixed-width r_C embeddings), so the first row sizes the arena. A row
	// of another width — an endpoint community with no Result — would
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

// classes returns the per-edge probability-vector width Phase III
// prediction produces for this pipeline/result pairing.
func (p *Pipeline) classes(res *Result) int {
	if p.cfg.AgreementRule || res.Combiner == nil {
		return social.NumLabels
	}
	return res.Combiner.Classes
}

// predictBlockRows is the number of edges a prediction worker assembles
// into one feature panel before running the GEMM. Large enough to amortize
// the kernel's per-call setup, small enough that the panel (256 × 183
// float64 ≈ 366 KB at combiner scale) stays cache-resident while the
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

// RecombineEdges is the Phase III re-prediction stage: recompute the
// prediction and probability vector of just the listed edges with the
// already-trained combiner, merging the fresh values into res.Edges
// (other edges keep their entries). An edge feature reads only the two
// endpoints' ego results, so after a mutation batch the edges incident to
// the dirty node set are exactly the ones whose prediction can change.
//
// The merge builds a new store — the previous store (possibly shared with
// a published snapshot) is never written in place.
func (p *Pipeline) RecombineEdges(res *Result, edges []graph.Edge) error {
	fresh, err := p.repredict(res, edges)
	if err != nil {
		return err
	}
	res.Edges = res.Edges.spliced(nil, fresh)
	return nil
}

// repredict runs Phase III prediction for just the listed edges against
// res's classified egos and returns them as a sorted run (empty for an
// empty list).
func (p *Pipeline) repredict(res *Result, edges []graph.Edge) (edgeRun, error) {
	if len(edges) == 0 {
		return edgeRun{}, nil
	}
	if !p.cfg.AgreementRule && res.Combiner == nil {
		return edgeRun{}, fmt.Errorf("core: recombine: result has no trained combiner")
	}
	classes := p.classes(res)
	preds := make([]social.Label, len(edges))
	probsFlat := make([]float64, len(edges)*classes)
	p.predictEdges(res, edges, preds, probsFlat, classes)
	return sortedRun(edges, preds, probsFlat, classes), nil
}

// RunFrozen re-executes the pipeline's compute phases with every learned
// model frozen: Phase I from scratch over the whole graph, Phase II
// inference with trained.Classifier, Phase III prediction with
// trained.Combiner (or the agreement rule) — no training anywhere. It is
// the reference implementation the incremental engine is verified against
// (VerifyIncremental): both paths are compositions of the same stages, so
// any divergence is a dirty-set propagation bug, not a model drift.
func (p *Pipeline) RunFrozen(ds *social.Dataset, trained *Result) (*Result, error) {
	if trained == nil || trained.Classifier == nil {
		return nil, fmt.Errorf("core: run frozen: result carries no trained classifier")
	}
	if !p.cfg.AgreementRule && trained.Combiner == nil {
		return nil, fmt.Errorf("core: run frozen: result carries no trained combiner")
	}
	res := &Result{
		ClassifierName: trained.ClassifierName,
		Classifier:     trained.Classifier,
		Combiner:       trained.Combiner,
	}
	res.Egos = make([]*EgoResult, ds.G.NumNodes())
	nodes := make([]graph.NodeID, ds.G.NumNodes())
	for u := range nodes {
		nodes[u] = graph.NodeID(u)
	}
	p.DivideNodes(ds, res.Egos, nodes)
	for _, er := range res.Egos {
		res.Communities = append(res.Communities, er.Comms...)
	}
	trained.Classifier.Classify(ds, res.Communities)
	edges := ds.G.Edges()
	classes := p.classes(res)
	preds := make([]social.Label, len(edges))
	probsFlat := make([]float64, len(edges)*classes)
	p.predictEdges(res, edges, preds, probsFlat, classes)
	res.publish(edges, preds, probsFlat, classes)
	return res, nil
}
