package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"locec/internal/core"
	"locec/internal/eval"
	"locec/internal/graph"
	"locec/internal/social"
)

// EvalSchemaVersion guards the eval-report JSON layout; bump on breaking
// changes so a stale baseline fails loudly instead of diffing garbage.
const EvalSchemaVersion = 1

// DefaultEvalEpsilon is the quality gate: a tracked metric lower than its
// baseline by more than this absolute amount fails the diff. Macro-F1 on
// the fixed-seed smoke substrate is deterministic, so the epsilon only
// absorbs float rendering, not run-to-run variance.
const DefaultEvalEpsilon = 0.02

// EvalMetric is one tracked quality number.
type EvalMetric struct {
	// Name identifies the metric, e.g. "macro_f1/clauset/xgb".
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// EvalReport is the quality counterpart of the bench report: the eval
// smoke run's tracked metrics, written as EVAL_smoke.json and diffed
// against bench/eval-baseline.json in CI.
type EvalReport struct {
	SchemaVersion int          `json:"schema_version"`
	Suite         string       `json:"suite"`
	CreatedAt     string       `json:"created_at,omitempty"`
	Metrics       []EvalMetric `json:"metrics"`
}

// EvalSmoke runs the eval smoke suite: the full detector frontier with
// the XGB Phase II plus one CNN row on the paper's Girvan–Newman
// configuration, each with macro_f1 and phase3_gain, and phase2_acc per
// classifier on GN (evaluatePhases). Deterministic for a fixed Options.Seed.
func EvalSmoke(opt Options) (*EvalReport, error) {
	opt.fill()
	r := &EvalReport{SchemaVersion: EvalSchemaVersion, Suite: "eval-smoke"}

	frontier, err := DetectorFrontier(opt)
	if err != nil {
		return nil, err
	}
	for _, row := range frontier.Rows {
		config := row.Detector + "/xgb"
		r.Metrics = append(r.Metrics,
			EvalMetric{Name: "macro_f1/" + config, Value: row.MacroF1},
			EvalMetric{Name: "phase3_gain/" + config, Value: row.Phase3Gain})
		if row.Detector == core.DetectorGirvanNewman.String() {
			r.Metrics = append(r.Metrics, EvalMetric{Name: "phase2_acc/xgb", Value: row.Phase2Acc})
		}
	}

	// One CNN row: the paper's configuration, tracking Phase II quality
	// on the same substrate and split.
	net, err := surveyedNetwork(opt)
	if err != nil {
		return nil, err
	}
	labeled := net.Dataset.LabeledEdges()
	_, test := eval.Split(labeled, 0.8, opt.Seed+2)
	holdOut(net.Dataset, test)
	rep, acc, gain, err := evaluatePhases(newLoCECCNN(opt), net.Dataset, test)
	if err != nil {
		return nil, err
	}
	r.Metrics = append(r.Metrics,
		EvalMetric{Name: "macro_f1/gn/cnn", Value: rep.MacroF1()},
		EvalMetric{Name: "phase3_gain/gn/cnn", Value: gain},
		EvalMetric{Name: "phase2_acc/cnn", Value: acc})

	sort.Slice(r.Metrics, func(i, j int) bool { return r.Metrics[i].Name < r.Metrics[j].Name })
	return r, nil
}

// evaluatePhases is evaluateOn that also splits the held-out quality by
// phase. Phase II accuracy scores each community's r_C against the
// majority true label of its ego edges that no phase saw (unrevealed),
// over the communities that have one. Phase III gain is rep's macro-F1
// minus the agreement rule's on the same classified communities: what
// the trained combiner adds.
func evaluatePhases(a *locecAdapter, ds *social.Dataset, test []uint64) (rep eval.Report, acc, gain float64, err error) {
	if rep, err = evaluateOn(a, ds, test); err != nil {
		return rep, 0, 0, err
	}
	var truth, pred []social.Label
	for _, er := range a.Result().Egos {
		for _, c := range er.Comms {
			var held core.LocalCommunity
			for _, m := range c.Members {
				if k := (graph.Edge{U: er.Ego, V: m}).Key(); !ds.IsRevealed(k) && ds.TrueLabel(k).Valid() {
					held.TruthVotes[ds.TrueLabel(k)]++
				}
			}
			if l := held.TruthLabel(); l.Valid() {
				truth, pred = append(truth, l), append(pred, social.Label(core.Argmax(c.Probs)))
			}
		}
	}
	agreed := *a.Result()
	rule := &locecAdapter{res: &agreed}
	if err := core.NewPipeline(core.Config{AgreementRule: true}).RecombineEdges(rule.res, ds.G.Edges()); err != nil {
		return rep, 0, 0, err
	}
	byRule := eval.Evaluate(truthsOf(ds, test), rule.PredictEdges(ds, test))
	return rep, eval.Evaluate(truth, pred).Accuracy(), rep.MacroF1() - byRule.MacroF1(), nil
}

// Write stores the report as pretty-printed JSON.
func (r *EvalReport) Write(path string) error {
	out := *r
	if out.CreatedAt == "" {
		out.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadEvalReport loads a report written by Write.
func ReadEvalReport(path string) (*EvalReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r EvalReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", path, err)
	}
	if r.SchemaVersion != EvalSchemaVersion {
		return nil, fmt.Errorf("experiments: %s: schema version %d, want %d (refresh the baseline)",
			path, r.SchemaVersion, EvalSchemaVersion)
	}
	return &r, nil
}

// DiffEval compares a run against its baseline and returns one failure
// message per violation: a tracked metric dropping more than epsilon
// (<= 0 uses DefaultEvalEpsilon) below baseline, or the metric sets
// differing at all — a mismatch means the baseline predates the current
// suite and must be refreshed, not silently partially compared.
// Improvements never fail.
func DiffEval(baseline, current *EvalReport, epsilon float64) []string {
	if epsilon <= 0 {
		epsilon = DefaultEvalEpsilon
	}
	var failures []string
	curBy := make(map[string]float64, len(current.Metrics))
	for _, m := range current.Metrics {
		curBy[m.Name] = m.Value
	}
	seen := make(map[string]bool, len(baseline.Metrics))
	for _, b := range baseline.Metrics {
		seen[b.Name] = true
		cur, ok := curBy[b.Name]
		if !ok {
			failures = append(failures,
				fmt.Sprintf("%s: tracked in baseline but missing from this run — refresh bench/eval-baseline.json", b.Name))
			continue
		}
		if drop := b.Value - cur; drop > epsilon {
			failures = append(failures,
				fmt.Sprintf("%s: %.4f, baseline %.4f (dropped %.4f > epsilon %.4f)",
					b.Name, cur, b.Value, drop, epsilon))
		}
	}
	for _, m := range current.Metrics {
		if !seen[m.Name] {
			failures = append(failures,
				fmt.Sprintf("%s: measured but absent from baseline — refresh bench/eval-baseline.json", m.Name))
		}
	}
	sort.Strings(failures)
	return failures
}
