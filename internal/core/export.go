package core

import (
	"bytes"
	"fmt"

	"locec/internal/graph"
	"locec/internal/logreg"
	"locec/internal/social"
)

// Export is the portable state of a completed pipeline run: everything a
// consumer needs to serve predictions — and to classify previously unseen
// communities — without retraining. It is the in-memory half of the
// offline/online split; internal/artifact gives it a durable, versioned,
// checksummed on-disk form (see docs/FORMATS.md).
//
// Edge arrays are parallel and ordered by ascending canonical edge key
// (which coincides with the graph's (U,V) edge order):
// Predictions[i] and Probabilities[i*Classes:(i+1)*Classes] belong to
// EdgeKeys[i].
type Export struct {
	// ClassifierName is the Phase II variant ("LoCEC-CNN", "LoCEC-XGB").
	ClassifierName string
	// Classes is the probability-vector width (social.NumLabels for the
	// shipped combiners).
	Classes int
	// Egos is the full Phase I+II output, one entry per node.
	Egos []*EgoResult
	// EdgeKeys lists every predicted edge's canonical key, ascending.
	EdgeKeys []uint64
	// Predictions holds the label per edge, parallel to EdgeKeys.
	Predictions []social.Label
	// Probabilities is one flat backing array of per-edge class
	// probability vectors, len(EdgeKeys)*Classes.
	Probabilities []float64
	// Model is the Phase II classifier's SaveModel blob (nil when the
	// classifier does not implement ModelPersister).
	Model []byte
	// Combiner is the trained Phase III logistic regression (nil under
	// the agreement-rule ablation).
	Combiner *logreg.Model
	// Times carries the original run's phase durations, so a consumer
	// restored from a snapshot can still report what training cost.
	Times PhaseTimes
}

// Export packages the result for the artifact store. It fails if the
// result has no predictions (the pipeline did not finish Phase III).
// The edge arrays are fresh flat copies of the store's chunks in key
// order, so the export is independent of the live store.
func (r *Result) Export() (*Export, error) {
	if r.Edges.Len() == 0 {
		return nil, fmt.Errorf("core: export: result has no predictions")
	}
	ex := &Export{
		ClassifierName: r.ClassifierName,
		Classes:        r.Edges.Classes(),
		Egos:           r.Egos,
		EdgeKeys:       r.Edges.Keys(),
		Predictions:    r.Edges.Labels(),
		Probabilities:  r.Edges.ProbsFlat(),
		Combiner:       r.Combiner,
		Times:          r.Times,
	}
	if mp, ok := r.Classifier.(ModelPersister); ok {
		var buf bytes.Buffer
		if err := mp.SaveModel(&buf); err != nil {
			return nil, fmt.Errorf("core: export: %w", err)
		}
		ex.Model = buf.Bytes()
	}
	return ex, nil
}

// Validate checks the export's internal shape invariants; RunFromArtifact
// calls it so a hand-built or corrupted export fails loudly.
func (ex *Export) Validate() error {
	if ex.Classes < 2 {
		return fmt.Errorf("core: export: %d classes", ex.Classes)
	}
	if len(ex.Predictions) != len(ex.EdgeKeys) {
		return fmt.Errorf("core: export: %d predictions for %d edges", len(ex.Predictions), len(ex.EdgeKeys))
	}
	if len(ex.Probabilities) != len(ex.EdgeKeys)*ex.Classes {
		return fmt.Errorf("core: export: %d probabilities for %d edges x %d classes",
			len(ex.Probabilities), len(ex.EdgeKeys), ex.Classes)
	}
	for i := 1; i < len(ex.EdgeKeys); i++ {
		if ex.EdgeKeys[i-1] >= ex.EdgeKeys[i] {
			return fmt.Errorf("core: export: edge keys not strictly increasing at %d", i)
		}
	}
	for i, er := range ex.Egos {
		if er == nil {
			return fmt.Errorf("core: export: nil ego result at node %d", i)
		}
		// Consumers index Egos by node ID (Combine, NodeCommunities, the
		// /v1/communities handler), so position and Ego must agree — an
		// out-of-order artifact would otherwise serve the wrong node's
		// communities with no error.
		if er.Ego != graph.NodeID(i) {
			return fmt.Errorf("core: export: ego result at index %d belongs to node %d", i, er.Ego)
		}
	}
	return nil
}

// RunFromArtifact is the import half of the Export seam: it reconstructs
// a complete *Result from a decoded artifact export, skipping all three
// phases and every training step. When the export carries a model blob,
// the matching classifier type is rebuilt, installed on the pipeline (so
// later Run calls reuse the loaded weights) and attached to the Result.
// Restart cost becomes O(deserialize) instead of O(train) — the paper's
// offline/online split (Section V-D).
func (p *Pipeline) RunFromArtifact(ex *Export) (*Result, error) {
	if ex == nil {
		return nil, fmt.Errorf("core: run from artifact: nil export")
	}
	if err := ex.Validate(); err != nil {
		return nil, err
	}
	res := &Result{
		ClassifierName: ex.ClassifierName,
		Egos:           ex.Egos,
		Combiner:       ex.Combiner,
		Times:          ex.Times,
	}
	// Validate vouched for ascending keys and parallel shapes, so the
	// store wraps the artifact arrays directly: chunk views over them, no
	// copy and no per-edge map.
	es, err := NewEdgeStore(ex.EdgeKeys, ex.Predictions, ex.Probabilities, ex.Classes)
	if err != nil {
		return nil, err
	}
	res.Edges = es
	if len(ex.Model) > 0 {
		cl, err := classifierForName(ex.ClassifierName)
		if err != nil {
			return nil, err
		}
		mp, ok := cl.(ModelPersister)
		if !ok {
			return nil, fmt.Errorf("core: classifier %q cannot load a model", ex.ClassifierName)
		}
		if err := mp.LoadModel(bytes.NewReader(ex.Model)); err != nil {
			return nil, err
		}
		p.cfg.Classifier = cl
		res.Classifier = cl
	}
	return res, nil
}
