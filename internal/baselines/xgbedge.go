package baselines

import (
	"fmt"

	"locec/internal/gbdt"
	"locec/internal/graph"
	"locec/internal/social"
)

// XGBoostEdge is the direct supervised baseline: a gradient boosted tree
// model over raw edge features [f_u, f_v, I_uv]. It has no mechanism
// against interaction sparsity — most pairs share an all-zero interaction
// block — which is exactly the weakness the paper's Table IV exposes.
type XGBoostEdge struct {
	// Config tunes the underlying GBDT; Classes is forced to NumLabels.
	Config gbdt.Config

	model *gbdt.Model
}

// Name implements EdgeClassifier.
func (x *XGBoostEdge) Name() string { return "XGBoost" }

// Fit implements EdgeClassifier.
func (x *XGBoostEdge) Fit(ds *social.Dataset) error {
	labeled := ds.LabeledEdges()
	if len(labeled) == 0 {
		return fmt.Errorf("baselines: XGBoost requires at least one labeled edge")
	}
	X := make([][]float64, 0, len(labeled))
	y := make([]int, 0, len(labeled))
	for _, k := range labeled {
		e := graph.EdgeFromKey(k)
		X = append(X, ds.EdgeFeature(e.U, e.V))
		y = append(y, int(ds.TrueLabel(k)))
	}
	cfg := x.Config
	cfg.Classes = social.NumLabels
	model, err := gbdt.Train(X, y, cfg)
	if err != nil {
		return err
	}
	x.model = model
	return nil
}

// PredictEdges implements EdgeClassifier.
func (x *XGBoostEdge) PredictEdges(ds *social.Dataset, keys []uint64) []social.Label {
	out := make([]social.Label, len(keys))
	for i, k := range keys {
		e := graph.EdgeFromKey(k)
		out[i] = social.Label(x.model.Predict(ds.EdgeFeature(e.U, e.V)))
	}
	return out
}
