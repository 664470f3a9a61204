package bench

import (
	"fmt"
	"runtime"
	"time"

	"locec/internal/core"
	"locec/internal/latency"
)

// M is the per-repetition measurement context handed to a scenario body —
// the harness's stand-in for *testing.B. The body reports how many
// logical operations one repetition performed (SetOps), per-phase
// wall-clock splits (RecordPhases), what it counted (RecordCount) and
// individual request latencies (RecordLatency); the harness supplies
// timing and allocation deltas.
type M struct {
	ops    int
	phases map[string]time.Duration
	counts map[string]float64
	hist   *latency.Histogram
}

// SetOps declares how many logical operations the repetition performed
// (default 1); ns/op divides the repetition wall clock by this.
func (m *M) SetOps(n int) {
	if n > 0 {
		m.ops = n
	}
}

// RecordPhase accumulates a named phase duration for the repetition.
func (m *M) RecordPhase(name string, d time.Duration) {
	m.phases[name] += d
}

// RecordPhases records every pipeline phase from a core run.
func (m *M) RecordPhases(t core.PhaseTimes) {
	for name, d := range t.Map() {
		m.RecordPhase(name, d)
	}
}

// RecordCount reports something the repetition counted rather than timed
// (e.g. the epochs a stopped fit ran): the work behind the wall clock.
func (m *M) RecordCount(name string, v float64) {
	if m.counts == nil {
		m.counts = map[string]float64{}
	}
	m.counts[name] = v
}

// RecordLatency adds one per-operation latency observation (e.g. a single
// HTTP request inside a repetition of many).
func (m *M) RecordLatency(d time.Duration) {
	m.hist.Observe(d)
}

// RunFunc is one timed repetition of a scenario.
type RunFunc func(m *M) error

// Scenario is a named, parameterized benchmark. Prepare performs untimed
// setup (dataset generation, server construction) and returns the timed
// body; the harness then runs warmup + measured repetitions.
type Scenario struct {
	// Name identifies the scenario across reports; the differ matches
	// old and new results by it. Encode parameters into the name
	// (e.g. "pipeline/xgb/n=1000/density=base") so distinct
	// configurations never collide.
	Name string
	// Params echoes the parameterization machine-readably.
	Params map[string]string
	// Warmup / Reps override Options when > 0.
	Warmup, Reps int
	// Prepare builds the timed body. Setup cost is not measured.
	Prepare func() (RunFunc, error)
}

// Options tunes a harness run.
type Options struct {
	// Warmup is the number of untimed runs before measurement (default 1).
	Warmup int
	// Reps is the number of measured repetitions (default 3); the
	// headline ns/op is the fastest repetition, the standard low-noise
	// estimator.
	Reps int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

const (
	defaultWarmup = 1
	defaultReps   = 3
)

// ScenarioResult is one scenario's measurement — an entry in a Report.
type ScenarioResult struct {
	Scenario    string            `json:"scenario"`
	Params      map[string]string `json:"params,omitempty"`
	Reps        int               `json:"reps"`
	OpsPerRep   int               `json:"ops_per_rep"`
	NsPerOp     float64           `json:"ns_per_op"`
	AllocsPerOp float64           `json:"allocs_per_op"`
	BytesPerOp  float64           `json:"bytes_per_op"`
	// RepNs lists every measured repetition's wall clock so a reader can
	// judge spread without rerunning.
	RepNs []float64 `json:"rep_ns,omitempty"`
	// PhaseNs breaks the fastest repetition down by pipeline phase
	// (keys from core.PhaseTimes.Map).
	PhaseNs map[string]float64 `json:"phase_ns,omitempty"`
	// Counts is what the fastest repetition counted, for scenarios that
	// record any (RecordCount). Additive and omitted when empty, so
	// reports without it still read under the same SchemaVersion.
	Counts map[string]float64 `json:"counts,omitempty"`
	// Latency summarizes per-operation latencies across all measured
	// repetitions, for scenarios that record them.
	Latency *LatencyDoc `json:"latency,omitempty"`
}

// LatencyDoc is the JSON rendering of a latency histogram summary.
type LatencyDoc struct {
	Count  int64   `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P95Ns  float64 `json:"p95_ns"`
	P99Ns  float64 `json:"p99_ns"`
	MaxNs  float64 `json:"max_ns"`
}

func newLatencyDoc(s latency.Stats) *LatencyDoc {
	return &LatencyDoc{
		Count:  s.Count,
		MeanNs: s.MeanNs,
		P50Ns:  s.P50Ns,
		P95Ns:  s.P95Ns,
		P99Ns:  s.P99Ns,
		MaxNs:  s.MaxNs,
	}
}

// RunScenario prepares and measures one scenario.
func RunScenario(sc Scenario, opt Options) (ScenarioResult, error) {
	warmup, reps := opt.Warmup, opt.Reps
	if warmup <= 0 {
		warmup = defaultWarmup
	}
	if reps <= 0 {
		reps = defaultReps
	}
	if sc.Warmup > 0 {
		warmup = sc.Warmup
	}
	if sc.Reps > 0 {
		reps = sc.Reps
	}

	run, err := sc.Prepare()
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("bench: %s: prepare: %w", sc.Name, err)
	}

	scratch := latency.New() // warmup observations are discarded
	for i := 0; i < warmup; i++ {
		m := &M{ops: 1, phases: map[string]time.Duration{}, hist: scratch}
		if err := run(m); err != nil {
			return ScenarioResult{}, fmt.Errorf("bench: %s: warmup: %w", sc.Name, err)
		}
	}

	hist := latency.New()
	res := ScenarioResult{
		Scenario:  sc.Name,
		Params:    sc.Params,
		Reps:      reps,
		OpsPerRep: 1,
	}
	best := time.Duration(-1)
	var ms0, ms1 runtime.MemStats
	for rep := 0; rep < reps; rep++ {
		m := &M{ops: 1, phases: map[string]time.Duration{}, hist: hist}
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		if err := run(m); err != nil {
			return ScenarioResult{}, fmt.Errorf("bench: %s: rep %d: %w", sc.Name, rep, err)
		}
		dur := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		res.RepNs = append(res.RepNs, float64(dur.Nanoseconds()))
		if best < 0 || dur < best {
			best = dur
			res.OpsPerRep = m.ops
			res.NsPerOp = float64(dur.Nanoseconds()) / float64(m.ops)
			res.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(m.ops)
			res.BytesPerOp = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(m.ops)
			if len(m.phases) > 0 {
				res.PhaseNs = make(map[string]float64, len(m.phases))
				for name, d := range m.phases {
					res.PhaseNs[name] = float64(d.Nanoseconds())
				}
			}
			res.Counts = m.counts
		}
		opt.logf("  rep %d/%d: %v", rep+1, reps, dur.Round(time.Microsecond))
	}
	if hist.Count() > 0 {
		res.Latency = newLatencyDoc(hist.Snapshot())
	}
	return res, nil
}

// RunScenarios measures every scenario in order, logging progress.
func RunScenarios(scs []Scenario, opt Options) ([]ScenarioResult, error) {
	results := make([]ScenarioResult, 0, len(scs))
	for i, sc := range scs {
		opt.logf("[%d/%d] %s", i+1, len(scs), sc.Name)
		r, err := RunScenario(sc, opt)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return results, nil
}
