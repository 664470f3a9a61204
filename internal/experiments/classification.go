package experiments

import (
	"fmt"
	"strings"

	"locec/internal/core"
	"locec/internal/eval"
	"locec/internal/social"
)

// ---------------------------------------------------------------------------
// Table IV — relationship (edge) classification, five methods
// ---------------------------------------------------------------------------

// Table4 evaluates all five methods on the surveyed network (40% labels,
// 80/20 train/test split). Paper shape: LoCEC-CNN > LoCEC-XGB > ProbWP >
// Economix > XGBoost in overall F1.
func Table4(opt Options) ([]MethodReport, error) {
	opt.fill()
	net, err := surveyedNetwork(opt)
	if err != nil {
		return nil, err
	}
	labeled := net.Dataset.LabeledEdges()
	_, test := eval.Split(labeled, 0.8, opt.Seed+2)
	holdOut(net.Dataset, test)
	var out []MethodReport
	for _, c := range allClassifiers(opt) {
		rep, err := evaluateOn(c, net.Dataset, test)
		if err != nil {
			return nil, err
		}
		out = append(out, MethodReport{Method: c.Name(), Report: rep})
	}
	return out, nil
}

// FormatTable4 renders Table IV.
func FormatTable4(rows []MethodReport) string {
	return formatMetricTable("Table IV: relationship classification performance", rows)
}

// ---------------------------------------------------------------------------
// Fig. 11 — F1 vs percentage of labeled edges
// ---------------------------------------------------------------------------

// Fig11Result holds per-method F1 series over the labeled-percentage sweep
// for the three classes and overall.
type Fig11Result struct {
	// Percents lists the swept percentages of labeled edges.
	Percents []int
	// F1 maps panel ("Colleagues", "Family Members", "Schoolmates",
	// "Overall") -> method -> series aligned with Percents.
	F1 map[string]map[string][]float64
}

// Fig11 sweeps the revealed-label percentage (paper: 5%..75% of the 40%
// labeled sub-graph) and evaluates all five methods on the remaining
// known-truth edges. Paper shape: propagation methods collapse at 5%,
// supervised methods degrade gracefully, LoCEC-CNN dominates throughout.
func Fig11(opt Options) (*Fig11Result, error) {
	opt.fill()
	percents := []int{5, 15, 25, 35, 45, 55, 65, 75}
	if opt.Quick {
		percents = []int{5, 25, 45, 65}
	}
	res := &Fig11Result{Percents: percents, F1: map[string]map[string][]float64{}}
	panels := []string{social.Colleague.String(), social.Family.String(), social.Schoolmate.String(), "Overall"}
	for _, p := range panels {
		res.F1[p] = map[string][]float64{}
	}
	for _, pct := range percents {
		net, err := surveyedNetwork(opt)
		if err != nil {
			return nil, err
		}
		all := net.Dataset.LabeledEdges()
		// Keep pct% of the revealed labels; everything else with known
		// truth becomes the test set.
		net.SubsampleRevealed(float64(pct)/100.0, opt.Seed+3)
		kept := map[uint64]bool{}
		for _, k := range net.Dataset.LabeledEdges() {
			kept[k] = true
		}
		var test []uint64
		for _, k := range all {
			if !kept[k] {
				test = append(test, k)
			}
		}
		for _, c := range allClassifiers(opt) {
			rep, err := evaluateOn(c, net.Dataset, test)
			if err != nil {
				return nil, err
			}
			for ci := 0; ci < social.NumLabels; ci++ {
				panel := social.Label(ci).String()
				res.F1[panel][c.Name()] = append(res.F1[panel][c.Name()], rep.PerClass[ci].F1)
			}
			res.F1["Overall"][c.Name()] = append(res.F1["Overall"][c.Name()], rep.Overall.F1)
		}
	}
	return res, nil
}

// String renders the four panels.
func (r *Fig11Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 11: F1-score vs percentage of labeled edges\n")
	methods := []string{"ProbWP", "Economix", "XGBoost", "LoCEC-XGB", "LoCEC-CNN"}
	for _, panel := range []string{social.Colleague.String(), social.Family.String(), social.Schoolmate.String(), "Overall"} {
		fmt.Fprintf(&b, "  (%s)\n", panel)
		fmt.Fprintf(&b, "  %-6s", "pct")
		for _, m := range methods {
			fmt.Fprintf(&b, " %10s", m)
		}
		b.WriteString("\n")
		for i, pct := range r.Percents {
			fmt.Fprintf(&b, "  %-6d", pct)
			for _, m := range methods {
				series := r.F1[panel][m]
				if i < len(series) {
					fmt.Fprintf(&b, " %10.3f", series[i])
				} else {
					fmt.Fprintf(&b, " %10s", "-")
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table V — community classification
// ---------------------------------------------------------------------------

// Table5 evaluates LoCEC-XGB and LoCEC-CNN at the community level: Phase I
// communities take their majority revealed label as ground truth, split
// 80/20, and the Phase II classifiers are scored directly (paper Table V:
// CNN 0.927 overall F1 vs XGB 0.882, both above their edge-level scores).
func Table5(opt Options) ([]MethodReport, error) {
	opt.fill()
	net, err := surveyedNetwork(opt)
	if err != nil {
		return nil, err
	}
	egos := core.Divide(net.Dataset, core.DivisionConfig{Seed: opt.Seed})
	var comms []*core.LocalCommunity
	var labels []social.Label
	for _, er := range egos {
		for _, c := range er.Comms {
			if l := c.TruthLabel(); l.Valid() {
				comms = append(comms, c)
				labels = append(labels, l)
			}
		}
	}
	if len(comms) < 10 {
		return nil, fmt.Errorf("experiments: only %d labeled communities", len(comms))
	}
	// 80/20 split over communities.
	idx := make([]uint64, len(comms))
	for i := range idx {
		idx[i] = uint64(i)
	}
	trainIdx, testIdx := eval.Split(idx, 0.8, opt.Seed+4)
	mkSet := func(ids []uint64) ([]*core.LocalCommunity, []social.Label) {
		cs := make([]*core.LocalCommunity, len(ids))
		ls := make([]social.Label, len(ids))
		for i, id := range ids {
			cs[i] = comms[id]
			ls[i] = labels[id]
		}
		return cs, ls
	}
	trainC, trainL := mkSet(trainIdx)
	testC, testL := mkSet(testIdx)

	xgbRounds := 25
	if opt.Quick {
		xgbRounds = 10
	}
	classifiers := []core.CommunityClassifier{
		&core.XGBClassifier{Seed: opt.Seed, Config: gbdtConfig(xgbRounds, opt.Seed)},
		&core.CNNClassifier{K: opt.K, Filters: opt.CNNFilters, Hidden: opt.CNNHidden, Epochs: opt.CNNEpochs, Seed: opt.Seed},
	}
	var out []MethodReport
	for _, clf := range classifiers {
		if err := clf.Fit(net.Dataset, trainC, trainL); err != nil {
			return nil, err
		}
		clf.Classify(net.Dataset, testC)
		preds := make([]social.Label, len(testC))
		for i, c := range testC {
			preds[i] = social.Label(core.Argmax(c.Probs))
		}
		out = append(out, MethodReport{Method: clf.Name(), Report: eval.Evaluate(testL, preds)})
	}
	return out, nil
}

// FormatTable5 renders Table V.
func FormatTable5(rows []MethodReport) string {
	return formatMetricTable("Table V: community classification performance", rows)
}

// ---------------------------------------------------------------------------
// Fig. 10 — parameter study
// ---------------------------------------------------------------------------

// Fig10aResult is the CDF of local community sizes.
type Fig10aResult struct {
	X      []int
	CDF    []float64
	Median float64
	Total  int
}

// Fig10a runs Phase I and reports the community-size distribution (paper:
// median 8, ~80% of communities at most 20 users, 90% below 30).
func Fig10a(opt Options) (*Fig10aResult, error) {
	opt.fill()
	net, err := newNetwork(opt)
	if err != nil {
		return nil, err
	}
	egos := core.Divide(net.Dataset, core.DivisionConfig{Seed: opt.Seed})
	var sizes []float64
	for _, er := range egos {
		for _, c := range er.Comms {
			sizes = append(sizes, float64(len(c.Members)))
		}
	}
	cdf := eval.NewCDF(sizes)
	res := &Fig10aResult{Median: cdf.Quantile(0.5), Total: cdf.N()}
	for _, x := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		res.X = append(res.X, x)
		res.CDF = append(res.CDF, cdf.At(float64(x)))
	}
	return res, nil
}

// String renders the CDF.
func (r *Fig10aResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 10(a): CDF of community size (%d communities, median %.0f)\n", r.Total, r.Median)
	for i, x := range r.X {
		fmt.Fprintf(&b, "size <= %-4d %6.1f%%\n", x, 100*r.CDF[i])
	}
	return b.String()
}

// Fig10bResult is the overall-F1-vs-k curve for LoCEC-CNN.
type Fig10bResult struct {
	K  []int
	F1 []float64
}

// Fig10b sweeps the feature-matrix row budget k (paper: performance peaks
// at k = 20 and degrades on both sides).
func Fig10b(opt Options) (*Fig10bResult, error) {
	opt.fill()
	ks := []int{5, 10, 15, 20, 25, 30, 35, 40}
	if opt.Quick {
		ks = []int{5, 15, 25}
	}
	res := &Fig10bResult{}
	for _, k := range ks {
		net, err := surveyedNetwork(opt)
		if err != nil {
			return nil, err
		}
		labeled := net.Dataset.LabeledEdges()
		_, test := eval.Split(labeled, 0.8, opt.Seed+2)
		holdOut(net.Dataset, test)
		kopt := opt
		kopt.K = k
		rep, err := evaluateOn(newLoCECCNN(kopt), net.Dataset, test)
		if err != nil {
			return nil, err
		}
		res.K = append(res.K, k)
		res.F1 = append(res.F1, rep.Overall.F1)
	}
	return res, nil
}

// String renders the sweep.
func (r *Fig10bResult) String() string {
	var b strings.Builder
	b.WriteString("Fig. 10(b): overall F1-score as k varies (LoCEC-CNN)\n")
	for i, k := range r.K {
		fmt.Fprintf(&b, "k=%-4d F1=%.3f\n", k, r.F1[i])
	}
	return b.String()
}
