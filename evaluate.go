package locec

import (
	"locec/internal/eval"
	"locec/internal/graph"
	"locec/internal/social"
)

// Metrics reports precision, recall and F1 for one class or overall.
type Metrics struct {
	Precision, Recall, F1 float64
	// Support is the number of evaluated instances of the class.
	Support int
}

// Evaluation is a full classification scorecard: one entry per
// relationship class plus the micro-averaged overall row, as the paper's
// Tables IV and V report.
type Evaluation struct {
	PerClass [NumLabels]Metrics
	Overall  Metrics
}

// HoldOut hides the labels of a random fraction of the dataset's revealed
// edges from learners and returns them as a test set for EvaluateOn. Call
// it before Classify; the split is deterministic per seed.
func HoldOut(ds *social.Dataset, testFraction float64, seed int64) []Friendship {
	labeled := ds.LabeledEdges()
	_, test := eval.Split(labeled, 1-testFraction, seed)
	out := make([]Friendship, len(test))
	for i, k := range test {
		e := graph.EdgeFromKey(k)
		out[i] = Friendship{U: e.U, V: e.V}
		ds.SetRevealed(k, false)
	}
	return out
}

// Friendship identifies one undirected edge by its endpoints.
type Friendship struct {
	U, V NodeID
}

// EvaluateOn scores the result's predictions against the dataset's ground
// truth on the given edges (typically the HoldOut return). Edges whose
// ground truth is not one of the three predictable classes are skipped,
// following the paper's protocol.
func (r *Result) EvaluateOn(ds *social.Dataset, edges []Friendship) Evaluation {
	truth := make([]social.Label, len(edges))
	pred := make([]social.Label, len(edges))
	for i, e := range edges {
		truth[i] = ds.TrueLabel(edgeKey(e.U, e.V))
		pred[i] = r.Label(e.U, e.V)
	}
	rep := eval.Evaluate(truth, pred)
	var out Evaluation
	for c := 0; c < NumLabels; c++ {
		out.PerClass[c] = Metrics{
			Precision: rep.PerClass[c].Precision,
			Recall:    rep.PerClass[c].Recall,
			F1:        rep.PerClass[c].F1,
			Support:   rep.PerClass[c].Support,
		}
	}
	out.Overall = Metrics{
		Precision: rep.Overall.Precision,
		Recall:    rep.Overall.Recall,
		F1:        rep.Overall.F1,
		Support:   rep.Overall.Support,
	}
	return out
}
