// Package social defines the shared data model of a LoCEC problem
// instance: the friendship graph, per-user profile features, per-edge
// interaction counts on |I| dimensions, ground-truth edge labels, and the
// set of labels revealed to learners (the survey sample).
//
// Everything downstream — the LoCEC engine, the baselines, the evaluation
// harness — consumes this representation, so the synthetic generator and
// any future real-data loader are interchangeable.
package social

import (
	"fmt"

	"locec/internal/chunktab"
	"locec/internal/graph"
)

// Label is a relationship type. The paper focuses on the three major first
// categories (84% of surveyed edges): colleagues, family members and
// schoolmates.
type Label int8

// Relationship types.
const (
	// Unlabeled marks an edge with no revealed ground truth.
	Unlabeled Label = -1
	// Colleague covers current and past workplace relationships.
	Colleague Label = 0
	// Family covers kin, next of kin and in-law relationships.
	Family Label = 1
	// Schoolmate covers primary/middle/university/graduate cohorts.
	Schoolmate Label = 2
	// Other is a ground-truth-only category (interest, business, agent,
	// private — 16% of the paper's survey). The paper's classifiers only
	// predict the three major classes, so Other edges are excluded from
	// training and from evaluation, exactly as in Section II-B.
	Other Label = 3
)

// NumLabels is the number of predictable relationship classes.
const NumLabels = 3

// Labels lists the predictable classes in index order.
var Labels = [NumLabels]Label{Colleague, Family, Schoolmate}

// String implements fmt.Stringer.
func (l Label) String() string {
	switch l {
	case Colleague:
		return "Colleague"
	case Family:
		return "Family Members"
	case Schoolmate:
		return "Schoolmates"
	case Other:
		return "Others"
	case Unlabeled:
		return "Unlabeled"
	default:
		return fmt.Sprintf("Label(%d)", int8(l))
	}
}

// Valid reports whether l is one of the predictable classes.
func (l Label) Valid() bool { return l >= 0 && l < NumLabels }

// ValidGroundTruth reports whether l can appear as a true edge label
// (a predictable class or Other).
func (l Label) ValidGroundTruth() bool { return l.Valid() || l == Other }

// InteractionDim identifies one observed interaction dimension.
type InteractionDim int

// The interaction dimensions observed per friend pair. Moments dimensions
// follow the paper's Section II categories (pictures, articles, games) ×
// (like, comment); messaging and reposting round out the |I| = 8 dims the
// problem statement mentions ("messaging, commenting, reposting or liking").
const (
	DimMessage InteractionDim = iota
	DimLikePicture
	DimLikeArticle
	DimLikeGame
	DimCommentPicture
	DimCommentArticle
	DimCommentGame
	DimRepost
	NumInteractionDims
)

// Dataset is one problem instance.
//
// The three per-edge maps hold the dataset as generated or loaded. A
// dataset that came out of a mutation epoch (core.Pipeline.ApplyMutations)
// additionally carries an edit delta that shadows them — see edits.go — so
// index the maps directly only on a dataset you built yourself; everywhere
// else read through the accessors (TrueLabel, IsRevealed, RevealedLabel,
// InteractionRow, InteractionVector, the All* iterators, LabeledEdges*),
// which answer for the edited view.
type Dataset struct {
	// G is the undirected friendship graph.
	G *graph.Graph
	// UserFeatures holds the per-user profile vector f_u (gender, age,
	// region, activity); all rows have equal length |f|.
	UserFeatures [][]float64
	// Interactions maps canonical edge key -> per-dimension counts
	// (length NumInteractionDims). Edges without any interaction are
	// absent from the map — the sparsity the paper is built around.
	// As generated/loaded; read through InteractionRow / InteractionVector.
	Interactions map[uint64][]float64
	// TrueLabels maps every edge key to its ground-truth label. The
	// generator knows all labels; evaluation uses this map.
	// As generated/loaded; read through TrueLabel / LookupTrueLabel.
	TrueLabels map[uint64]Label
	// Revealed is the set of edge keys whose label is visible to learners
	// (the survey sample E_labeled).
	// As generated/loaded; read through IsRevealed / RevealedLabel.
	Revealed map[uint64]bool

	// edits is the copy-on-write delta mutation epochs left over the three
	// maps (empty on a generated or loaded dataset). It is never written
	// after the Editor that built it commits.
	edits chunktab.Table[edit]
}

// NumFeatureDims returns |f|, the per-user profile width.
func (d *Dataset) NumFeatureDims() int {
	if len(d.UserFeatures) == 0 {
		return 0
	}
	return len(d.UserFeatures[0])
}

// Interaction returns the count on dimension dim for edge {u,v} (0 when the
// pair never interacted).
func (d *Dataset) Interaction(u, v graph.NodeID, dim InteractionDim) float64 {
	return d.InteractionVector(u, v)[dim]
}

// InteractionVector returns the full |I|-dim count vector for edge {u,v};
// the returned slice must not be modified. Missing pairs yield a shared
// zero vector.
func (d *Dataset) InteractionVector(u, v graph.NodeID) []float64 {
	if c, ok := d.InteractionRow((graph.Edge{U: u, V: v}).Key()); ok {
		return c
	}
	return zeroInteractions[:]
}

var zeroInteractions [NumInteractionDims]float64

// InteractionRow returns the stored count vector of edge key k and whether
// the pair has one; the returned slice must not be modified.
func (d *Dataset) InteractionRow(k uint64) ([]float64, bool) {
	if e, ok := d.edited(k); ok {
		return e.inter, e.inter != nil
	}
	c, ok := d.Interactions[k]
	return c, ok
}

// LookupTrueLabel returns the ground-truth label of edge key k and whether
// the dataset has one for it.
func (d *Dataset) LookupTrueLabel(k uint64) (Label, bool) {
	if e, ok := d.edited(k); ok {
		return e.label, !e.deleted
	}
	l, ok := d.TrueLabels[k]
	return l, ok
}

// TrueLabel returns the ground-truth label of edge key k; like the map
// read it replaces, an unknown key yields the zero label.
func (d *Dataset) TrueLabel(k uint64) Label {
	l, _ := d.LookupTrueLabel(k)
	return l
}

// IsRevealed reports whether the label of edge key k is visible to
// learners.
func (d *Dataset) IsRevealed(k uint64) bool {
	if e, ok := d.edited(k); ok {
		return e.revealed
	}
	return d.Revealed[k]
}

// RevealedLabel returns the label of edge key k if revealed, else Unlabeled.
func (d *Dataset) RevealedLabel(k uint64) Label {
	if d.IsRevealed(k) {
		return d.TrueLabel(k)
	}
	return Unlabeled
}

// HasGroundTruth reports whether the dataset carries per-edge labels at
// all (an artifact-only topology does not).
func (d *Dataset) HasGroundTruth() bool { return d.TrueLabels != nil }

// LabeledEdges returns the canonical keys of all revealed edges whose true
// label is one of the predictable classes, in graph edge order
// (deterministic). Revealed Other edges are excluded: the paper restricts
// both training and evaluation to the three major categories.
func (d *Dataset) LabeledEdges() []uint64 {
	out := make([]uint64, 0, len(d.Revealed))
	d.G.ForEachEdge(func(u, v graph.NodeID) {
		k := (graph.Edge{U: u, V: v}).Key()
		if d.IsRevealed(k) && d.TrueLabel(k).Valid() {
			out = append(out, k)
		}
	})
	return out
}

// LabeledEdgesAll returns the canonical keys of all revealed edges
// including Other-class ones, in graph edge order.
func (d *Dataset) LabeledEdgesAll() []uint64 {
	out := make([]uint64, 0, len(d.Revealed))
	d.G.ForEachEdge(func(u, v graph.NodeID) {
		k := (graph.Edge{U: u, V: v}).Key()
		if d.IsRevealed(k) {
			out = append(out, k)
		}
	})
	return out
}

// CheckValues is the one rule for numeric input: no value may be NaN or
// ±Inf, and with counts set (interaction counts) none may be negative. The
// error names the first offending column as "<column> <j> = <value>".
// Validate applies it to every user feature row and interaction vector,
// core.CheckInteractions to a mutation's row.
func CheckValues(row []float64, column string, counts bool) error {
	for j, x := range row {
		if x-x != 0 || counts && x < 0 { // x-x is NaN for NaN and ±Inf, else 0
			return fmt.Errorf("%s %d = %v", column, j, x)
		}
	}
	return nil
}

// Validate checks internal consistency; generators call it before handing a
// dataset to learners.
func (d *Dataset) Validate() error {
	n := d.G.NumNodes()
	if len(d.UserFeatures) != n {
		return fmt.Errorf("social: %d feature rows for %d nodes", len(d.UserFeatures), n)
	}
	w := d.NumFeatureDims()
	for i, row := range d.UserFeatures {
		if len(row) != w {
			return fmt.Errorf("social: feature row %d has width %d, want %d", i, len(row), w)
		}
		if err := CheckValues(row, "column", false); err != nil {
			return fmt.Errorf("social: feature row %d: %w", i, err)
		}
	}
	for k, c := range d.AllInteractions() {
		e := graph.EdgeFromKey(k)
		if !d.G.HasEdge(e.U, e.V) {
			return fmt.Errorf("social: interaction on non-edge %v", e)
		}
		if len(c) != int(NumInteractionDims) {
			return fmt.Errorf("social: interaction vector on %v has %d dims", e, len(c))
		}
		if err := CheckValues(c, "interaction dim", true); err != nil {
			return fmt.Errorf("social: edge {%d,%d}: %w", e.U, e.V, err)
		}
	}
	labels := 0
	for k, l := range d.AllTrueLabels() {
		labels++
		if !l.ValidGroundTruth() {
			return fmt.Errorf("social: invalid true label %d on %v", l, graph.EdgeFromKey(k))
		}
	}
	if labels != d.G.NumEdges() {
		return fmt.Errorf("social: %d true labels for %d edges", labels, d.G.NumEdges())
	}
	for k := range d.AllRevealed() {
		if _, ok := d.LookupTrueLabel(k); !ok {
			return fmt.Errorf("social: revealed non-edge %v", graph.EdgeFromKey(k))
		}
	}
	return nil
}

// EdgeFeature builds the flat feature vector the plain-XGBoost baseline
// consumes: [f_u, f_v, I_uv]. Endpoint features are ordered canonically
// (u < v) so the representation is symmetric.
func (d *Dataset) EdgeFeature(u, v graph.NodeID) []float64 {
	if u > v {
		u, v = v, u
	}
	fu, fv := d.UserFeatures[u], d.UserFeatures[v]
	iv := d.InteractionVector(u, v)
	out := make([]float64, 0, len(fu)+len(fv)+len(iv))
	out = append(out, fu...)
	out = append(out, fv...)
	out = append(out, iv...)
	return out
}
