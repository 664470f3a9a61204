package experiments

import (
	"fmt"
	"strings"
	"time"

	"locec/internal/core"
	"locec/internal/eval"
	"locec/internal/gbdt"
)

// FrontierRow is one Phase I detector's position on the accuracy-vs-speed
// frontier: held-out classification quality bought at its division cost.
type FrontierRow struct {
	Detector string
	// Local marks the seed-grown detectors as opposed to the whole-ego
	// global ones.
	Local bool
	// MacroF1 is the class-balanced held-out score with the XGB
	// classifier (the fast, deterministic Phase II — the study varies
	// only Phase I).
	MacroF1 float64
	// Phase1 is the wall-clock division time.
	Phase1 time.Duration
	// Communities counts the local communities the detector produced.
	Communities int
}

// FrontierResult is the detector comparison of the local-first study: all
// six Phase I detectors (Girvan–Newman, label propagation, Louvain, and
// the seed-grown Clauset / l-shell / LEMON) on the same surveyed network
// and held-out split.
type FrontierResult struct {
	Rows []FrontierRow
}

// DetectorFrontier runs the accuracy-vs-speed comparison. Everything but
// the Phase I detector is held fixed, so a row's MacroF1 deficit against
// the Girvan–Newman row is the price of its Phase1 speedup.
func DetectorFrontier(opt Options) (*FrontierResult, error) {
	opt.fill()
	rounds := 25
	if opt.Quick {
		rounds = 10
	}
	res := &FrontierResult{}
	for _, name := range core.DetectorNames() {
		kind, err := core.ParseDetector(name)
		if err != nil {
			return nil, err
		}
		net, err := surveyedNetwork(opt)
		if err != nil {
			return nil, err
		}
		labeled := net.Dataset.LabeledEdges()
		_, test := eval.Split(labeled, 0.8, opt.Seed+2)
		holdOut(net.Dataset, test)

		adapter := &locecAdapter{
			name: "LoCEC-XGB/" + name,
			cfg: core.Config{
				Division: core.DivisionConfig{Detector: kind, Seed: opt.Seed},
				Classifier: &core.XGBClassifier{
					Config: gbdt.Config{Rounds: rounds, MaxDepth: 4, Seed: opt.Seed},
					Seed:   opt.Seed,
				},
				Seed: opt.Seed,
			},
		}
		rep, err := evaluateOn(adapter, net.Dataset, test)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, FrontierRow{
			Detector:    name,
			Local:       kind.Local(),
			MacroF1:     rep.MacroF1(),
			Phase1:      adapter.Result().Times.Phase1,
			Communities: adapter.Result().NumCommunities(),
		})
	}
	return res, nil
}

// String renders the frontier table.
func (r *FrontierResult) String() string {
	var b strings.Builder
	b.WriteString("Detector frontier (Phase I accuracy vs speed; XGB Phase II fixed)\n")
	fmt.Fprintf(&b, "%-12s %-8s %10s %12s %12s\n", "Detector", "Scope", "Macro F1", "Phase I", "Communities")
	for _, row := range r.Rows {
		scope := "global"
		if row.Local {
			scope = "local"
		}
		fmt.Fprintf(&b, "%-12s %-8s %10.3f %12s %12d\n",
			row.Detector, scope, row.MacroF1, row.Phase1.Round(time.Millisecond), row.Communities)
	}
	return b.String()
}
