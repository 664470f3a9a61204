package experiments

import (
	"fmt"
	"strings"

	"locec/internal/ads"
	"locec/internal/social"
	"locec/internal/tensor"
)

// ---------------------------------------------------------------------------
// Fig. 13 — distribution of predicted community and relationship types
// ---------------------------------------------------------------------------

// Fig13Result tallies the classifier's output mix.
type Fig13Result struct {
	// CommunityPct[c] is the share of local communities predicted class c.
	CommunityPct [social.NumLabels]float64
	// RelationshipPct[c] is the share of edges predicted class c.
	RelationshipPct [social.NumLabels]float64
	Communities     int
	Edges           int
}

// Fig13 classifies the full network with LoCEC-CNN (all survey labels used
// for training) and reports the type mixes. Paper shape: families are the
// plurality of communities (49%) but colleagues the plurality of edges
// (47%), because colleague communities are larger than family ones.
func Fig13(opt Options) (*Fig13Result, error) {
	opt.fill()
	net, err := surveyedNetwork(opt)
	if err != nil {
		return nil, err
	}
	cnn := newLoCECCNN(opt)
	if err := cnn.Fit(net.Dataset); err != nil {
		return nil, err
	}
	res := &Fig13Result{}
	for _, c := range cnn.Result().Communities {
		if len(c.Probs) == 0 {
			continue
		}
		res.CommunityPct[tensor.ArgMax(c.Probs)]++
		res.Communities++
	}
	for c := range res.CommunityPct {
		res.CommunityPct[c] /= float64(res.Communities)
	}
	for _, l := range cnn.Result().Edges.LabelMap() {
		res.RelationshipPct[l]++
		res.Edges++
	}
	for c := range res.RelationshipPct {
		res.RelationshipPct[c] /= float64(res.Edges)
	}
	return res, nil
}

// String renders both pies.
func (r *Fig13Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 13: distribution of predicted types (%d communities, %d edges)\n", r.Communities, r.Edges)
	b.WriteString("  Community types:\n")
	for c := 0; c < social.NumLabels; c++ {
		fmt.Fprintf(&b, "    %-16s %5.1f%%\n", social.Label(c).String(), 100*r.CommunityPct[c])
	}
	b.WriteString("  Relationship types:\n")
	for c := 0; c < social.NumLabels; c++ {
		fmt.Fprintf(&b, "    %-16s %5.1f%%\n", social.Label(c).String(), 100*r.RelationshipPct[c])
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig. 14 — social advertising performance
// ---------------------------------------------------------------------------

// Fig14Result holds click/interact rates per category and method.
type Fig14Result struct {
	// Outcomes[category][method] with categories "Furniture"/"MobileGame"
	// and methods "LoCEC-CNN"/"Relation".
	Outcomes map[string]map[string]ads.Outcome
}

// Fig14 runs the advertising simulation with LoCEC-CNN's edge predictions
// against the untyped Relation strategy. Paper shape: LoCEC-CNN lifts
// click rate moderately and interact rate by more than 2×.
func Fig14(opt Options) (*Fig14Result, error) {
	opt.fill()
	net, err := surveyedNetwork(opt)
	if err != nil {
		return nil, err
	}
	cnn := newLoCECCNN(opt)
	if err := cnn.Fit(net.Dataset); err != nil {
		return nil, err
	}
	sim := ads.NewSimulator(net.Dataset, cnn.Result().Edges.LabelMap(), opt.Seed+5)
	res := &Fig14Result{Outcomes: map[string]map[string]ads.Outcome{}}
	seeds := opt.Users / 8
	audience := opt.Users / 3
	runs := 10
	if opt.Quick {
		runs = 4
	}
	for _, cat := range []ads.Category{ads.Furniture, ads.MobileGame} {
		var lo, re ads.Outcome
		for rr := 0; rr < runs; rr++ {
			l, r2 := sim.Run(ads.Campaign{Category: cat, Seeds: seeds, Audience: audience, Seed: opt.Seed + int64(rr)})
			lo.ClickRate += l.ClickRate / float64(runs)
			lo.InteractRate += l.InteractRate / float64(runs)
			lo.Impressions += l.Impressions / runs
			re.ClickRate += r2.ClickRate / float64(runs)
			re.InteractRate += r2.InteractRate / float64(runs)
			re.Impressions += r2.Impressions / runs
		}
		lo.Method, re.Method = "LoCEC-CNN", "Relation"
		res.Outcomes[cat.String()] = map[string]ads.Outcome{
			"LoCEC-CNN": lo,
			"Relation":  re,
		}
	}
	return res, nil
}

// String renders the bars.
func (r *Fig14Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 14: performance in social advertising\n")
	fmt.Fprintf(&b, "  %-12s %-10s %12s %14s\n", "Category", "Method", "ClickRate", "InteractRate")
	for _, cat := range []string{"Furniture", "MobileGame"} {
		for _, m := range []string{"LoCEC-CNN", "Relation"} {
			o := r.Outcomes[cat][m]
			fmt.Fprintf(&b, "  %-12s %-10s %11.2f%% %13.3f%%\n", cat, m, o.ClickRate, o.InteractRate)
		}
	}
	return b.String()
}
