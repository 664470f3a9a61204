package experiments

import (
	"strings"
	"testing"

	"locec/internal/core"
)

func TestAblationsRun(t *testing.T) {
	opt := Quick()
	opt.Users = 300
	res, err := Ablations(opt)
	if err != nil {
		t.Fatal(err)
	}
	// One row per detector (the paper's is GN), then row order and the
	// agreement rule.
	if want := len(core.DetectorNames()) + 2; len(res.Rows) != want {
		t.Fatalf("expected %d variants, got %d", want, len(res.Rows))
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
