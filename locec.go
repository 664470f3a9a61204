// Package locec is the public API of this repository: a from-scratch Go
// implementation of LoCEC — Local Community-based Edge Classification in
// Large Online Social Networks (Song et al., ICDE 2020).
//
// LoCEC classifies the edges of a friendship graph into real-world
// relationship types (colleagues, family members, schoolmates) in three
// phases: (I) division — every node's ego network is extracted and
// partitioned into local communities with Girvan–Newman; (II) aggregation —
// each local community is classified from an interaction/profile feature
// matrix by the CommCNN convolutional model or an XGBoost-style learner;
// (III) combination — a logistic regression merges both endpoints'
// community results into a final edge label.
//
// Quick start:
//
//	ds, _ := locec.Synthesize(locec.SynthConfig{Users: 1000, Seed: 1})
//	ds.RevealSurvey(0.4, 7)
//	res, err := locec.Classify(ds.Dataset, locec.Config{Variant: locec.VariantCNN, Seed: 1})
//	if err != nil { ... }
//	label := res.Label(u, v)
//
// Custom graphs are assembled with NewBuilder. Everything is stdlib-only
// and deterministic per seed.
package locec

import (
	"fmt"
	"slices"

	"locec/internal/core"
	"locec/internal/gbdt"
	"locec/internal/graph"
	"locec/internal/logreg"
	"locec/internal/social"
)

// NodeID identifies a user; IDs are dense 0..NumUsers-1.
type NodeID = graph.NodeID

// Label is a relationship type.
type Label = social.Label

// Relationship types (re-exported from the data model).
const (
	Colleague  = social.Colleague
	Family     = social.Family
	Schoolmate = social.Schoolmate
	Other      = social.Other
	Unlabeled  = social.Unlabeled
)

// NumLabels is the number of predictable relationship classes.
const NumLabels = social.NumLabels

// InteractionDim identifies an interaction dimension (likes, comments,
// messages, ... — see the Dim constants).
type InteractionDim = social.InteractionDim

// Interaction dimensions observed on each friend pair.
const (
	DimMessage        = social.DimMessage
	DimLikePicture    = social.DimLikePicture
	DimLikeArticle    = social.DimLikeArticle
	DimLikeGame       = social.DimLikeGame
	DimCommentPicture = social.DimCommentPicture
	DimCommentArticle = social.DimCommentArticle
	DimCommentGame    = social.DimCommentGame
	DimRepost         = social.DimRepost
	// NumInteractionDims is the interaction vector width |I|.
	NumInteractionDims = social.NumInteractionDims
)

// Variant selects the Phase II community classifier.
type Variant int

const (
	// VariantCNN is LoCEC-CNN, the paper's best performer (CommCNN).
	VariantCNN Variant = iota
	// VariantXGB is LoCEC-XGB, the gradient-boosted runner-up.
	VariantXGB
)

// Detector selects the Phase I community detection algorithm.
type Detector = core.DetectorKind

// Phase I detectors (re-exported from the engine).
const (
	// DetectorGirvanNewman is the paper's algorithm (default).
	DetectorGirvanNewman = core.DetectorGirvanNewman
	// DetectorLabelProp is a fast ablation alternative.
	DetectorLabelProp = core.DetectorLabelProp
	// DetectorLouvain is a fast greedy-modularity ablation alternative.
	DetectorLouvain = core.DetectorLouvain
	// DetectorClauset grows communities by greedy local-modularity
	// expansion from seeds (Clauset 2005) — local.
	DetectorClauset = core.DetectorClauset
	// DetectorLShell grows communities shell by shell with an
	// emerging-degree cutoff (Bagrow & Bollt 2005) — local.
	DetectorLShell = core.DetectorLShell
)

// ParseDetector maps a detector name (core.DetectorNames; "" selects
// Girvan–Newman) to its Detector constant.
func ParseDetector(name string) (Detector, error) {
	return core.ParseDetector(name)
}

// String implements fmt.Stringer.
func (v Variant) String() string {
	if v == VariantXGB {
		return "LoCEC-XGB"
	}
	return "LoCEC-CNN"
}

// Config tunes a classification run. The zero value plus a Seed gives the
// paper's configuration (CNN, k = 20).
type Config struct {
	// Variant picks LoCEC-CNN (default) or LoCEC-XGB.
	Variant Variant
	// K is the community feature-matrix row budget (paper: 20).
	K int
	// Epochs / Filters / Hidden tune CommCNN training (CNN variant).
	Epochs, Filters, Hidden int
	// Rounds / MaxDepth tune the boosted trees (XGB variant).
	Rounds, MaxDepth int
	// Seed makes the run reproducible.
	Seed int64
	// Detector swaps the Phase I algorithm (default Girvan–Newman, the
	// paper's choice; the alternatives are ablations).
	Detector Detector
	// AgreementRule replaces the Phase III logistic regression with the
	// naive both-sides-agree rule (ablation; not the paper's combiner).
	AgreementRule bool
}

// Result exposes a completed run.
type Result struct {
	inner *core.Result
}

// Label returns the predicted relationship for the friendship {u,v}
// (Unlabeled if the edge does not exist).
func (r *Result) Label(u, v NodeID) Label {
	l, ok := r.inner.PredictedLabelOK(u, v)
	if !ok {
		return Unlabeled
	}
	return l
}

// Probabilities returns the class probability vector for the friendship
// {u,v}, or nil if the edge does not exist. Index the result with
// Colleague/Family/Schoolmate. The slice is a copy the caller owns.
func (r *Result) Probabilities(u, v NodeID) []float64 {
	return slices.Clone(r.inner.Edges.Probs((graph.Edge{U: u, V: v}).Key()))
}

// NumCommunities reports how many local communities Phase I detected
// across all ego networks.
func (r *Result) NumCommunities() int { return r.inner.NumCommunities() }

// CommunitySizes returns the size of every detected local community.
func (r *Result) CommunitySizes() []float64 { return r.inner.CommunitySizes() }

// PhaseDurations reports wall-clock time per phase: Phase II model
// training, division, aggregation, combination.
func (r *Result) PhaseDurations() (training, phase1, phase2, phase3 float64) {
	t := r.inner.Times
	return t.Training.Seconds(), t.Phase1.Seconds(), t.Phase2.Seconds(), t.Phase3.Seconds()
}

// ClassifierName reports the Phase II community classifier the run used
// ("LoCEC-CNN" or "LoCEC-XGB").
func (r *Result) ClassifierName() string { return r.inner.ClassifierName }

// CommunityView is a read-only snapshot of one local community detected in
// a node's ego network — what GET /v1/communities/{node} of locec-serve
// returns per community.
type CommunityView struct {
	// Ego is the node whose ego network contains the community.
	Ego NodeID
	// Members are the community's nodes (global IDs).
	Members []NodeID
	// Tightness[i] is Members[i]'s tightness in the community (Eq. 3).
	Tightness []float64
	// Label is the Phase II argmax class for the community.
	Label Label
	// Probs is the Phase II class probability vector.
	Probs []float64
}

// NodeCommunities returns the local communities of node's ego network with
// their Phase II classification, or nil if node is out of range.
func (r *Result) NodeCommunities(node NodeID) []CommunityView {
	if int(node) >= len(r.inner.Egos) || r.inner.Egos[node] == nil {
		return nil
	}
	er := r.inner.Egos[node]
	out := make([]CommunityView, len(er.Comms))
	for i, c := range er.Comms {
		out[i] = CommunityView{
			Ego:       c.Ego,
			Members:   c.Members,
			Tightness: c.Tightness,
			Label:     Label(core.Argmax(c.Probs)),
			Probs:     c.Probs,
		}
	}
	return out
}

// LabelScore pairs a relationship type with its predicted probability.
type LabelScore = core.LabelScore

// MultiLabel returns every relationship type whose probability on the
// friendship {u,v} exceeds threshold, strongest first — the paper's
// multi-type relationship mining extension (future work in Section III).
func (r *Result) MultiLabel(u, v NodeID, threshold float64) []LabelScore {
	return r.inner.MultiLabel(u, v, threshold)
}

// Internal returns the underlying engine result for advanced inspection
// (community membership, tightness values, per-community probabilities,
// impurity detection via LocalCommunity.Outliers).
func (r *Result) Internal() *core.Result { return r.inner }

// Classify runs the full LoCEC pipeline on a dataset. Edges whose labels
// are revealed on the dataset form the training set; every edge receives a
// prediction.
func Classify(ds *social.Dataset, cfg Config) (*Result, error) {
	if ds == nil {
		return nil, fmt.Errorf("locec: nil dataset")
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	coreCfg := core.Config{Seed: cfg.Seed, AgreementRule: cfg.AgreementRule}
	coreCfg.Division = core.DivisionConfig{Detector: cfg.Detector, Seed: cfg.Seed}
	switch cfg.Variant {
	case VariantXGB:
		coreCfg.Classifier = &core.XGBClassifier{
			Config: gbdt.Config{Rounds: cfg.Rounds, MaxDepth: cfg.MaxDepth, Seed: cfg.Seed},
			Seed:   cfg.Seed,
		}
	default:
		coreCfg.Classifier = &core.CNNClassifier{
			K: cfg.K, Filters: cfg.Filters, Hidden: cfg.Hidden,
			Epochs: cfg.Epochs, Seed: cfg.Seed,
		}
	}
	coreCfg.Combiner = logreg.Config{Classes: social.NumLabels, Seed: cfg.Seed + 101}
	res, err := core.NewPipeline(coreCfg).Run(ds)
	if err != nil {
		return nil, err
	}
	return &Result{inner: res}, nil
}
