package experiments

import (
	"strings"
	"testing"
)

func TestAblationsRun(t *testing.T) {
	opt := Quick()
	opt.Users = 300
	res, err := Ablations(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("expected 7 variants, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.OverallF1 < 0.3 || row.OverallF1 > 1 {
			t.Fatalf("%s: implausible F1 %.3f", row.Variant, row.OverallF1)
		}
		if row.Phase1 <= 0 {
			t.Fatalf("%s: missing phase 1 time", row.Variant)
		}
	}
	// The fast detectors should not be slower than exact Girvan-Newman in
	// Phase I (the point of the ablation).
	var gn, louvain int64
	for _, row := range res.Rows {
		if strings.Contains(row.Variant, "paper") {
			gn = int64(row.Phase1)
		}
		if strings.Contains(row.Variant, "Louvain") {
			louvain = int64(row.Phase1)
		}
	}
	if louvain > gn*2 {
		t.Fatalf("Louvain phase 1 (%d) much slower than GN (%d)", louvain, gn)
	}
	if !strings.Contains(res.String(), "Ablation study") {
		t.Fatal("render missing title")
	}
}
