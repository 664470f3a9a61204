package experiments

import (
	"fmt"
	"strings"
	"time"

	"locec/internal/core"
	"locec/internal/eval"
)

// AblationRow is one pipeline variant's outcome.
type AblationRow struct {
	Variant   string
	OverallF1 float64
	Phase1    time.Duration
	Phase3    time.Duration
}

// AblationResult collects the design-choice study of DESIGN.md §5: the
// paper's configuration against alternative Phase I detectors, random
// feature-matrix row ordering, and the naive agreement-rule combiner.
// This study is an extension of the paper (which ships exactly one
// configuration), quantifying how much each LoCEC design choice buys.
type AblationResult struct {
	Rows []AblationRow
}

// Ablations runs every pipeline variant on the same surveyed network and
// held-out split, using the CNN classifier throughout.
func Ablations(opt Options) (*AblationResult, error) {
	opt.fill()
	type variant struct {
		name string
		mut  func(cfg *core.Config)
	}
	variants := []variant{
		{"LoCEC (paper: GN + tightness + LR)", func(cfg *core.Config) {}},
		{"Phase I: Louvain detector", func(cfg *core.Config) {
			cfg.Division.Detector = core.DetectorLouvain
		}},
		{"Phase I: label propagation", func(cfg *core.Config) {
			cfg.Division.Detector = core.DetectorLabelProp
		}},
		{"Phase I: Clauset local-R", func(cfg *core.Config) {
			cfg.Division.Detector = core.DetectorClauset
		}},
		{"Phase I: l-shell spreading", func(cfg *core.Config) {
			cfg.Division.Detector = core.DetectorLShell
		}},
		{"Phase II: random row order", func(cfg *core.Config) {
			cfg.Classifier.(*core.CNNClassifier).ShuffleRows = true
		}},
		{"Phase III: agreement rule", func(cfg *core.Config) {
			cfg.AgreementRule = true
		}},
	}
	res := &AblationResult{}
	for _, v := range variants {
		net, err := surveyedNetwork(opt)
		if err != nil {
			return nil, err
		}
		labeled := net.Dataset.LabeledEdges()
		_, test := eval.Split(labeled, 0.8, opt.Seed+2)
		holdOut(net.Dataset, test)

		adapter := newLoCECCNN(opt)
		v.mut(&adapter.cfg)
		rep, err := evaluateOn(adapter, net.Dataset, test)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Variant:   v.name,
			OverallF1: rep.Overall.F1,
			Phase1:    adapter.Result().Times.Phase1,
			Phase3:    adapter.Result().Times.Phase3,
		})
	}
	return res, nil
}

// String renders the study.
func (r *AblationResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation study (extension; not a paper artifact)\n")
	fmt.Fprintf(&b, "%-38s %10s %12s %12s\n", "Variant", "Overall F1", "Phase I", "Phase III")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-38s %10.3f %12s %12s\n",
			row.Variant, row.OverallF1,
			row.Phase1.Round(time.Millisecond), row.Phase3.Round(time.Millisecond))
	}
	return b.String()
}
