package experiments

import (
	"path/filepath"
	"strings"
	"testing"

	"locec/internal/core"
)

func evalReport(metrics map[string]float64) *EvalReport {
	r := &EvalReport{SchemaVersion: EvalSchemaVersion, Suite: "eval-smoke"}
	for name, v := range metrics {
		r.Metrics = append(r.Metrics, EvalMetric{Name: name, Value: v})
	}
	return r
}

func TestDiffEvalGatesDropsOnly(t *testing.T) {
	base := evalReport(map[string]float64{"a": 0.80, "b": 0.70, "c": 0.60})
	cur := evalReport(map[string]float64{
		"a": 0.90,  // improvement: never fails
		"b": 0.695, // within epsilon
		"c": 0.50,  // drop of 0.10 > 0.02
	})
	failures := DiffEval(base, cur, 0.02)
	if len(failures) != 1 || !strings.Contains(failures[0], "c:") {
		t.Fatalf("failures = %v, want just the c drop", failures)
	}
	if got := DiffEval(base, base, 0.02); len(got) != 0 {
		t.Fatalf("self-diff failed: %v", got)
	}
}

func TestDiffEvalMetricSetMismatchFails(t *testing.T) {
	base := evalReport(map[string]float64{"kept": 0.8, "dropped": 0.8})
	cur := evalReport(map[string]float64{"kept": 0.8, "added": 0.8})
	failures := DiffEval(base, cur, 0.02)
	if len(failures) != 2 {
		t.Fatalf("failures = %v, want dropped + added", failures)
	}
	for _, f := range failures {
		if !strings.Contains(f, "refresh bench/eval-baseline.json") {
			t.Fatalf("mismatch failure missing refresh hint: %s", f)
		}
	}
}

func TestEvalReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eval.json")
	r := evalReport(map[string]float64{"macro_f1/clauset/xgb": 0.8125})
	if err := r.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvalReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Metrics) != 1 || got.Metrics[0] != r.Metrics[0] {
		t.Fatalf("round trip lost metrics: %+v", got.Metrics)
	}
	if got.CreatedAt == "" {
		t.Fatal("Write did not stamp created_at")
	}

	// A wrong schema version must fail loudly.
	bad := evalReport(nil)
	bad.SchemaVersion = EvalSchemaVersion + 1
	if err := bad.Write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEvalReport(path); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

// TestEvalSmokeDeterministic: the gate's tracked metrics are bit-stable
// for a fixed seed — the property that lets the baseline pin exact values
// with a tiny epsilon.
func TestEvalSmokeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the full frontier twice")
	}
	opt := Quick()
	opt.Users = 200
	a, err := EvalSmoke(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvalSmoke(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Metrics) != len(b.Metrics) {
		t.Fatalf("metric counts differ: %d vs %d", len(a.Metrics), len(b.Metrics))
	}
	for i := range a.Metrics {
		if a.Metrics[i] != b.Metrics[i] {
			t.Fatalf("metric %d differs across runs: %+v vs %+v", i, a.Metrics[i], b.Metrics[i])
		}
	}
	// macro_f1 and phase3_gain per detector and for the CNN reference,
	// phase2_acc per classifier.
	if want := 2*(len(core.DetectorNames())+1) + 2; len(a.Metrics) != want {
		t.Fatalf("%d metrics, want %d", len(a.Metrics), want)
	}
	for _, m := range a.Metrics {
		lo := 0.0
		if strings.HasPrefix(m.Name, "phase3_gain/") {
			lo = -1 // a difference of two macro-F1s
		}
		if m.Value <= lo || m.Value > 1 {
			t.Fatalf("%s: implausible value %.4f", m.Name, m.Value)
		}
	}
}
