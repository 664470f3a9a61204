package experiments

import (
	"strings"
	"testing"

	"locec/internal/social"
)

// The experiment tests run in Quick mode; they assert the paper's *shape*
// claims (orderings, rough factors), not absolute numbers.

func TestTable1SurveyMix(t *testing.T) {
	res, err := Table1(Quick())
	if err != nil {
		t.Fatal(err)
	}
	colleague, family, school, other := res.First[social.Colleague.String()], res.First[social.Family.String()],
		res.First[social.Schoolmate.String()], res.First[social.Other.String()]
	if !(colleague > family && family > school) {
		t.Fatalf("first-category ordering wrong: C=%.2f F=%.2f S=%.2f O=%.2f", colleague, family, school, other)
	}
	sum := colleague + family + school + other
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("ratios sum %.3f", sum)
	}
	if !strings.Contains(res.String(), "Table I") {
		t.Fatal("render missing title")
	}
}

func TestTable2HighPrecisionTinyRecall(t *testing.T) {
	opt := Quick()
	opt.Users = 1500 // needs enough named groups for stable precision
	res, err := Table2(opt)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < social.NumLabels; c++ {
		m := res.PerClass[c]
		if m.Support == 0 {
			continue
		}
		if m.Precision < 0.55 {
			t.Fatalf("%v precision = %.3f, want >= 0.55 (paper: 0.70+)", social.Label(c), m.Precision)
		}
		if m.Recall > 0.15 {
			t.Fatalf("%v recall = %.3f, want tiny (paper: < 0.015)", social.Label(c), m.Recall)
		}
	}
}

func TestFig2Monotone(t *testing.T) {
	res, err := Fig2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for name, ys := range res.Series {
		for i := 1; i < len(ys); i++ {
			if ys[i] < ys[i-1] {
				t.Fatalf("%s CDF not monotone", name)
			}
		}
		if ys[len(ys)-1] < 0.8 {
			t.Fatalf("%s CDF too low at 10 groups: %.2f", name, ys[len(ys)-1])
		}
	}
	// Colleagues share the most groups: lowest CDF at x=1.
	col := res.Series[social.Colleague.String()]
	fam := res.Series[social.Family.String()]
	if col[1] >= fam[1] {
		t.Fatalf("colleagues should lag family in common-group CDF: %.2f vs %.2f", col[1], fam[1])
	}
}

func TestFig3GameSignal(t *testing.T) {
	res, err := Fig3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	sm := social.Schoolmate.String()
	fm := social.Family.String()
	if res.Rates["Like"][sm]["Games"] <= res.Rates["Like"][fm]["Games"] {
		t.Fatal("schoolmates should like games most")
	}
	if res.Rates["Comment"][sm]["Games"] <= res.Rates["Comment"][fm]["Games"] {
		t.Fatal("schoolmates should comment on games most")
	}
}

func TestFig4SparsityVisible(t *testing.T) {
	res, err := Fig4(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Many pairs have zero Moments interactions regardless of type.
	for name, ys := range res.Series {
		if ys[0] < 0.25 {
			t.Fatalf("%s: CDF at 0 = %.2f, want >= 0.25 (sparsity)", name, ys[0])
		}
	}
}

func TestFig10aCommunitySizes(t *testing.T) {
	res, err := Fig10a(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Total == 0 {
		t.Fatal("no communities")
	}
	if res.Median < 2 || res.Median > 40 {
		t.Fatalf("median community size = %.0f, want small (paper: 8)", res.Median)
	}
	// CDF must reach ~1 by 256.
	if res.CDF[len(res.CDF)-1] < 0.999 {
		t.Fatalf("CDF at 256 = %.3f", res.CDF[len(res.CDF)-1])
	}
}

func TestTable4Ordering(t *testing.T) {
	rows, err := Table4(Quick())
	if err != nil {
		t.Fatal(err)
	}
	f1 := map[string]float64{}
	for _, r := range rows {
		f1[r.Method] = r.Report.Overall.F1
	}
	// The paper's headline ordering: both LoCEC variants beat every
	// baseline, and raw XGBoost trails the LoCEC variants badly.
	for _, base := range []string{"ProbWP", "Economix", "XGBoost"} {
		if f1["LoCEC-CNN"] <= f1[base] {
			t.Fatalf("LoCEC-CNN (%.3f) should beat %s (%.3f)", f1["LoCEC-CNN"], base, f1[base])
		}
		if f1["LoCEC-XGB"] <= f1[base] {
			t.Fatalf("LoCEC-XGB (%.3f) should beat %s (%.3f)", f1["LoCEC-XGB"], base, f1[base])
		}
	}
	if f1["LoCEC-CNN"] < 0.70 {
		t.Fatalf("LoCEC-CNN F1 = %.3f, want >= 0.70", f1["LoCEC-CNN"])
	}
	out := FormatTable4(rows)
	if !strings.Contains(out, "LoCEC-CNN") || !strings.Contains(out, "Overall") {
		t.Fatal("Table IV render incomplete")
	}
}

func TestTable5CommunityClassification(t *testing.T) {
	opt := Quick()
	opt.Users = 600 // community-level training needs a few more samples
	rows, err := Table5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("expected 2 methods, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Report.Overall.F1 < 0.65 {
			t.Fatalf("%s community F1 = %.3f, want >= 0.65", r.Method, r.Report.Overall.F1)
		}
	}
}

func TestFig14AdvertisingLift(t *testing.T) {
	res, err := Fig14(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range []string{"Furniture", "MobileGame"} {
		lo := res.Outcomes[cat]["LoCEC-CNN"]
		re := res.Outcomes[cat]["Relation"]
		if lo.ClickRate <= re.ClickRate {
			t.Fatalf("%s: LoCEC click %.3f%% <= Relation %.3f%%", cat, lo.ClickRate, re.ClickRate)
		}
		if lo.InteractRate <= re.InteractRate {
			t.Fatalf("%s: LoCEC interact %.4f%% <= Relation %.4f%%", cat, lo.InteractRate, re.InteractRate)
		}
	}
}

func TestTable6PhaseTimes(t *testing.T) {
	res, err := Table6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Times.Phase1 <= 0 || res.Times.Phase2 <= 0 || res.Times.Phase3 <= 0 || res.Times.Training <= 0 {
		t.Fatalf("missing phase times: %+v", res.Times)
	}
	if !strings.Contains(res.String(), "Table VI") {
		t.Fatal("render missing title")
	}
}

func TestFig13Distribution(t *testing.T) {
	res, err := Fig13(Quick())
	if err != nil {
		t.Fatal(err)
	}
	var csum, rsum float64
	for c := 0; c < social.NumLabels; c++ {
		csum += res.CommunityPct[c]
		rsum += res.RelationshipPct[c]
	}
	if csum < 0.999 || csum > 1.001 || rsum < 0.999 || rsum > 1.001 {
		t.Fatalf("distributions do not sum to 1: %.3f %.3f", csum, rsum)
	}
}
