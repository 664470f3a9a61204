package experiments

import (
	"fmt"
	"sort"
	"strings"

	"locec/internal/eval"
	"locec/internal/graph"
	"locec/internal/groupname"
	"locec/internal/social"
)

// ---------------------------------------------------------------------------
// Table I — relationship types in user surveys
// ---------------------------------------------------------------------------

// Table1Result tallies the survey's first/second category mix.
type Table1Result struct {
	Total int
	// First maps first-category name -> ratio.
	First map[string]float64
	// Second maps "First/Second" -> ratio (Unknown for withheld answers).
	Second map[string]float64
}

// Table1 simulates the user survey and reports the relationship-type mix
// (paper Table I: colleagues 41%, family 28%, schoolmates 15%, others 16%).
func Table1(opt Options) (*Table1Result, error) {
	opt.fill()
	net, err := newNetwork(opt)
	if err != nil {
		return nil, err
	}
	records := net.RunSurvey(0.40, opt.Seed+1)
	res := &Table1Result{
		Total:  len(records),
		First:  map[string]float64{},
		Second: map[string]float64{},
	}
	for _, r := range records {
		first := r.First.String()
		res.First[first]++
		second := r.Second
		if second == "" {
			second = "Unknown"
		}
		res.Second[first+"/"+second]++
	}
	for k := range res.First {
		res.First[k] /= float64(res.Total)
	}
	for k := range res.Second {
		res.Second[k] /= float64(res.Total)
	}
	return res, nil
}

// String renders the table.
func (r *Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: relationship types in simulated survey (%d relationships)\n", r.Total)
	firsts := make([]string, 0, len(r.First))
	for k := range r.First {
		firsts = append(firsts, k)
	}
	sort.Strings(firsts)
	for _, f := range firsts {
		fmt.Fprintf(&b, "%-16s %5.1f%%\n", f, 100*r.First[f])
		seconds := make([]string, 0)
		for k := range r.Second {
			if strings.HasPrefix(k, f+"/") {
				seconds = append(seconds, k)
			}
		}
		sort.Strings(seconds)
		for _, s := range seconds {
			fmt.Fprintf(&b, "    %-14s %5.1f%%\n", strings.TrimPrefix(s, f+"/"), 100*r.Second[s])
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table II — group-name rule mining performance
// ---------------------------------------------------------------------------

// Table2 runs the rule-based group-name classifier over every named chat
// group and scores the induced pair labels against ground truth (paper
// Table II: precision 0.7–0.93, recall below 0.015).
func Table2(opt Options) (*eval.Report, error) {
	opt.fill()
	net, err := newNetwork(opt)
	if err != nil {
		return nil, err
	}
	// Predict a label for every friend pair inside a name-matched group.
	pred := map[uint64]social.Label{}
	for _, g := range net.Groups {
		l := groupname.Classify(g.Name)
		if !l.Valid() {
			continue
		}
		for i := 0; i < len(g.Members); i++ {
			for j := i + 1; j < len(g.Members); j++ {
				u, v := g.Members[i], g.Members[j]
				if !net.Dataset.G.HasEdge(u, v) {
					continue
				}
				k := (graph.Edge{U: u, V: v}).Key()
				if _, dup := pred[k]; !dup {
					pred[k] = l
				}
			}
		}
	}
	// The universe is every edge with a major-class ground truth; edges
	// outside any matched group count as abstentions (tiny recall).
	var truths, preds []social.Label
	net.Dataset.G.ForEachEdge(func(u, v graph.NodeID) {
		k := (graph.Edge{U: u, V: v}).Key()
		t := net.Dataset.TrueLabel(k)
		if !t.Valid() {
			return
		}
		truths = append(truths, t)
		if p, ok := pred[k]; ok {
			preds = append(preds, p)
		} else {
			preds = append(preds, social.Unlabeled)
		}
	})
	rep := eval.Evaluate(truths, preds)
	return &rep, nil
}

// ---------------------------------------------------------------------------
// Fig. 2 — CDF of common groups per relationship type
// ---------------------------------------------------------------------------

// Fig2Result holds per-relationship-type CDFs evaluated at x = 0..10 (the
// paper's axis). Fig. 2 (common groups) and Fig. 4 (Moments interactions)
// share this shape; Title distinguishes the renderings.
type Fig2Result struct {
	Title  string
	X      []int
	Series map[string][]float64
}

// Fig2 computes the Fig. 2 CDFs.
func Fig2(opt Options) (*Fig2Result, error) {
	opt.fill()
	net, err := newNetwork(opt)
	if err != nil {
		return nil, err
	}
	samples := map[social.Label][]float64{}
	for k, l := range net.Dataset.AllTrueLabels() {
		if !l.Valid() {
			continue
		}
		samples[l] = append(samples[l], float64(net.CommonGroups[k]))
	}
	res := &Fig2Result{Title: "Fig. 2: CDF of number of common groups", Series: map[string][]float64{}}
	for x := 0; x <= 10; x++ {
		res.X = append(res.X, x)
	}
	for l, s := range samples {
		cdf := eval.NewCDF(s)
		ys := make([]float64, len(res.X))
		for i, x := range res.X {
			ys[i] = cdf.At(float64(x))
		}
		res.Series[l.String()] = ys
	}
	return res, nil
}

// String renders the CDF series.
func (r *Fig2Result) String() string {
	return renderSeries(r.Title, "x", r.X, r.Series)
}

// ---------------------------------------------------------------------------
// Fig. 3 — percentage of interacted pairs per Moments category
// ---------------------------------------------------------------------------

// Fig3Result holds, per action (like/comment) and per relationship type,
// the fraction of pairs that interacted under each Moments category.
type Fig3Result struct {
	// Rates[action][type][category] with actions {"Like","Comment"},
	// categories {"Pictures","Articles","Games"}.
	Rates map[string]map[string]map[string]float64
}

// Fig3 measures interaction presence per type and category.
func Fig3(opt Options) (*Fig3Result, error) {
	opt.fill()
	net, err := newNetwork(opt)
	if err != nil {
		return nil, err
	}
	dims := map[string]map[string]social.InteractionDim{
		"Like": {
			"Pictures": social.DimLikePicture,
			"Articles": social.DimLikeArticle,
			"Games":    social.DimLikeGame,
		},
		"Comment": {
			"Pictures": social.DimCommentPicture,
			"Articles": social.DimCommentArticle,
			"Games":    social.DimCommentGame,
		},
	}
	counts := map[social.Label]int{}
	hits := map[string]map[string]map[social.Label]int{}
	for action, cats := range dims {
		hits[action] = map[string]map[social.Label]int{}
		for cat := range cats {
			hits[action][cat] = map[social.Label]int{}
		}
	}
	for k, l := range net.Dataset.AllTrueLabels() {
		if !l.Valid() {
			continue
		}
		counts[l]++
		iv, ok := net.Dataset.InteractionRow(k)
		if !ok {
			continue
		}
		for action, cats := range dims {
			for cat, dim := range cats {
				if iv[dim] > 0 {
					hits[action][cat][l]++
				}
			}
		}
	}
	res := &Fig3Result{Rates: map[string]map[string]map[string]float64{}}
	for action, cats := range dims {
		res.Rates[action] = map[string]map[string]float64{}
		for _, l := range social.Labels {
			res.Rates[action][l.String()] = map[string]float64{}
			for cat := range cats {
				if counts[l] > 0 {
					res.Rates[action][l.String()][cat] = float64(hits[action][cat][l]) / float64(counts[l])
				}
			}
		}
	}
	return res, nil
}

// String renders the bars.
func (r *Fig3Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 3: percentage of pairs interacting per Moments category\n")
	for _, action := range []string{"Like", "Comment"} {
		fmt.Fprintf(&b, "  (%s)\n", action)
		fmt.Fprintf(&b, "  %-16s %9s %9s %9s\n", "Type", "Pictures", "Articles", "Games")
		types := make([]string, 0, len(r.Rates[action]))
		for tp := range r.Rates[action] {
			types = append(types, tp)
		}
		sort.Strings(types)
		for _, tp := range types {
			row := r.Rates[action][tp]
			fmt.Fprintf(&b, "  %-16s %8.1f%% %8.1f%% %8.1f%%\n", tp,
				100*row["Pictures"], 100*row["Articles"], 100*row["Games"])
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig. 4 — CDF of Moments interactions
// ---------------------------------------------------------------------------

// Fig4 computes the CDF of total Moments interactions per pair by type.
func Fig4(opt Options) (*Fig2Result, error) {
	opt.fill()
	net, err := newNetwork(opt)
	if err != nil {
		return nil, err
	}
	momentDims := []social.InteractionDim{
		social.DimLikePicture, social.DimLikeArticle, social.DimLikeGame,
		social.DimCommentPicture, social.DimCommentArticle, social.DimCommentGame,
	}
	samples := map[social.Label][]float64{}
	for k, l := range net.Dataset.AllTrueLabels() {
		if !l.Valid() {
			continue
		}
		total := 0.0
		if iv, ok := net.Dataset.InteractionRow(k); ok {
			for _, d := range momentDims {
				total += iv[d]
			}
		}
		samples[l] = append(samples[l], total)
	}
	res := &Fig2Result{Title: "Fig. 4: CDF of Moments interactions", Series: map[string][]float64{}}
	for x := 0; x <= 10; x++ {
		res.X = append(res.X, x)
	}
	for l, s := range samples {
		cdf := eval.NewCDF(s)
		ys := make([]float64, len(res.X))
		for i, x := range res.X {
			ys[i] = cdf.At(float64(x))
		}
		res.Series[l.String()] = ys
	}
	return res, nil
}

func renderSeries(title, xlabel string, xs []int, series map[string][]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	names := make([]string, 0, len(series))
	for k := range series {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "%-8s", xlabel)
	for _, n := range names {
		fmt.Fprintf(&b, " %16s", n)
	}
	b.WriteString("\n")
	for i, x := range xs {
		fmt.Fprintf(&b, "%-8d", x)
		for _, n := range names {
			fmt.Fprintf(&b, " %15.1f%%", 100*series[n][i])
		}
		b.WriteString("\n")
	}
	return b.String()
}
