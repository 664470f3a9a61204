package core

import (
	"bytes"
	"fmt"

	"locec/internal/graph"
	"locec/internal/logreg"
)

// Export is the portable state of a completed pipeline run: everything a
// consumer needs to serve predictions — and to classify previously unseen
// communities — without retraining. It is the in-memory half of the
// offline/online split; internal/artifact gives it a durable, versioned,
// checksummed on-disk form (see docs/FORMATS.md).
//
// Edges is the live prediction store itself, not a copy: stores are
// immutable, so an export stays valid while later epochs derive new ones.
type Export struct {
	// ClassifierName is the Phase II variant ("LoCEC-CNN", "LoCEC-XGB").
	ClassifierName string
	// Egos is the full Phase I+II output, one entry per node.
	Egos []*EgoResult
	// Edges holds every predicted edge's label and class-probability
	// vector in ascending canonical key order (which coincides with the
	// graph's (U,V) edge order); Edges.Classes() is the vector width
	// (social.NumLabels for the shipped combiners).
	Edges *EdgeStore
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
// It shares the result's store and ego slice rather than copying them.
func (r *Result) Export() (*Export, error) {
	if r.Edges.Len() == 0 {
		return nil, fmt.Errorf("core: export: result has no predictions")
	}
	ex := &Export{
		ClassifierName: r.ClassifierName,
		Egos:           r.Egos,
		Edges:          r.Edges,
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
	if ex.Edges == nil {
		return fmt.Errorf("core: export: no prediction store")
	}
	if c := ex.Edges.Classes(); c < 2 {
		return fmt.Errorf("core: export: %d classes", c)
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
		Edges:          ex.Edges,
		Combiner:       ex.Combiner,
		Times:          ex.Times,
	}
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
