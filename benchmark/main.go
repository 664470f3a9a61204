// Command benchmark is the repository's benchmark: six workloads over the
// batch pipeline, the serving layer, the write path and the sharded
// router, each measured from outside through public functions and real
// sockets. See README.md for the metric glossary.
//
//	bash benchmark/run.sh -workload serve_read_10k -seed 42 -seconds 8 -trace 0
//	bash benchmark/run.sh -all            # every workload, untraced then traced
//	bash benchmark/run.sh -all -sets 2    # twice, order alternating, sets compared
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Out receives trace-<workload>.json and holds the run's scratch files
	// (artifacts, WAL directories), removed on exit. It lies inside the
	// checkout: the benchmark writes nowhere else.
	Out  string
	Size sizes
}

// sizes are the input sizes of the workloads. The real benchmark runs
// fullSize; the smoke tests shrink everything to toy scale.
type sizes struct {
	XGB, GN, CNN batchSpec
	ServeUsers   int
	// A set-up is repeated SetupRepeats times and, where one takes
	// milliseconds (batch), until MinSetup has been spent on it; setup_s is
	// the median of the repeats.
	SetupRepeats int
	MinSetup     time.Duration
	// WarmupOps are sent before the measured window of a serving workload;
	// ReplayOps is how many schedule entries the traced run replays through
	// handlers and direct calls.
	WarmupOps, ReplayOps int
}

var fullSize = sizes{
	XGB:          batchSpec{Data: datasetSpec{Users: 4000, Density: 1}, Pipe: pipelineSpec{"labelprop", "xgb"}, MinF1: 0.85, MinRuns: 3},
	GN:           batchSpec{Data: datasetSpec{Users: 500, Density: 1.5}, Pipe: pipelineSpec{"gn", "xgb"}, MinF1: 0.85, MinRuns: 3},
	CNN:          batchSpec{Data: datasetSpec{Users: 400, Density: 1}, Pipe: pipelineSpec{"gn", "cnn"}, MinF1: 0.75, MinRuns: 3},
	ServeUsers:   10000,
	SetupRepeats: 13,
	MinSetup:     1500 * time.Millisecond,
	WarmupOps:    2000,
	ReplayOps:    4000,
}

var workloads = []workloadDef{
	{Name: "batch_xgb_4k", Why: "full Pipeline.Run, labelprop + XGB at n=4000: combiner (logreg) training ~60% and gbdt ~25% of the run, Phase I ~7%",
		run: func(c runConfig) (*report, error) { return runBatch(c.Size.XGB, c) }},
	{Name: "batch_gn_dense_500", Why: "the paper's exact Girvan-Newman detector + XGB on a 1.5x dense graph: Phase I dominates, the mirror image of batch_xgb_4k",
		run: func(c runConfig) (*report, error) { return runBatch(c.Size.GN, c) }},
	{Name: "batch_cnn_400", Why: "the paper's headline configuration, GN + CommCNN (12 epochs): nn/tensor conv training dominates, logreg is negligible",
		run: func(c runConfig) (*report, error) { return runBatch(c.Size.CNN, c) }},
	{Name: "serve_read_10k", Why: "one closed-loop keep-alive connection to a cold-started server: 70% edge lookups, 20% 64-edge classify (half LRU hits, half never repeated), 10% communities",
		run: runServeRead},
	{Name: "serve_write_10k", Why: "WAL-backed clauset server: one acknowledged mutation then ten reads of its neighbourhood per cycle, then close and recover; writes beside reads",
		run: runServeWrite},
	{Name: "router_read_10k", Why: "the serve_read_10k requests through router + two shards over loopback: adds ring, one more hop and scatter-gather on classify",
		run: runRouterRead},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// report is what one workload run produces.
type report struct {
	Attempted int
	Failed    int
	Metrics   map[string]float64
	// notes are failed output checks; lines are the human-readable
	// timings (median, supported tail percentile, sample count) and facts.
	notes []string
	lines []string
}

func newReport() *report { return &report{Metrics: map[string]float64{}} }

// fail counts one failed or refused operation, or one failed output check.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func (r *report) fact(format string, args ...any) {
	r.lines = append(r.lines, "  "+fmt.Sprintf(format, args...))
}

// timing records a duration sample for the human-readable report.
func (r *report) timing(name, unit string, xs []float64) {
	t := summarize(xs)
	r.lines = append(r.lines, fmt.Sprintf("  %-28s median %.4g %s, p%g %.4g %s, n=%d", name, t.Median, unit, t.TailPct, t.Tail, unit, t.N))
}

// gated fills the end-to-end metrics of an untraced run. headline holds the
// latencies of the workload's headline operation over the measured window.
func (r *report) gated(setups, headline []time.Duration, heap heapCount, ops int, macroF1 float64) {
	r.timing("setup", "s", scaled(setups, 1))
	r.Metrics["setup_s"] = median(scaled(setups, 1))
	r.Metrics["op_p01_ms"] = p01(scaled(headline, 1e3))
	r.Metrics["allocs_per_op"] = float64(heap.objects) / float64(ops)
	r.Metrics["alloc_kb_per_op"] = float64(heap.bytes) / 1024 / float64(ops)
	r.Metrics["peak_rss_mb"] = peakRSSMB()
	r.Metrics["macro_f1"] = macroF1
}

// wallClock reports the other wall-clock figures of a measured window: the
// fast decile and the median of the headline operation, the fast decile
// over the whole mix (every kind's 10th percentile weighted by its share
// of the operations) and the window's mean time per operation. They spread
// too far between identical runs on a shared host to hold a bound (README,
// "Which latency is gated"), so an untraced run only prints them and a
// traced run reports them as e2e.*, taken from its span-free part.
func (r *report) wallClock(trace bool, headline []time.Duration, kinds [][]time.Duration, window time.Duration, ops int) {
	total, mix := 0, 0.0
	for _, k := range kinds {
		total += len(k)
	}
	for _, k := range kinds {
		mix += p10(scaled(k, 1e3)) * float64(len(k)) / float64(total)
	}
	figures := []struct {
		name  string
		value float64
	}{
		{"e2e.op_p10_ms", p10(scaled(headline, 1e3))},
		{"e2e.op_p50_ms", median(scaled(headline, 1e3))},
		{"e2e.mix_p10_ms", mix},
		{"e2e.mean_op_ms", window.Seconds() * 1e3 / float64(ops)},
	}
	for _, f := range figures {
		if trace {
			r.Metrics[f.name] = f.value
		} else {
			r.fact("%-34s %14.6g ms  (reported, not gated)", f.name, f.value)
		}
	}
}

// writeTrace stores the spans beside the per-layer metrics derived from
// them.
func (r *report) writeTrace(tr *tracer, cfg runConfig) error {
	path, err := tr.write(cfg.Out, cfg.Seed, r.Metrics)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	r.fact("trace: %s (%d spans)", path, len(tr.spans))
	return nil
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result renders the report against the metric set of its mode: every
// end-to-end metric untraced, every per-layer metric traced. A missing
// end-to-end metric is a bug in the workload; a per-layer metric the
// workload's layers never produce reads 0.
func (r *report) result(trace bool) (resultLine, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok && !trace {
			return out, fmt.Errorf("workload did not report %s", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range r.Metrics {
		if _, ok := out.Metrics[name]; !ok {
			return out, fmt.Errorf("workload reported unknown metric %s", name)
		}
	}
	return out, nil
}

// print writes the human-readable report followed by the result line.
func (r *report) print(cfg runConfig, line resultLine) error {
	mode := "untraced"
	if cfg.Trace {
		mode = "traced"
	}
	fmt.Printf("== %s seed=%d seconds=%g %s ==\n", cfg.Workload, cfg.Seed, cfg.Seconds, mode)
	for _, l := range r.lines {
		fmt.Println(l)
	}
	names := make([]string, 0, len(line.Metrics))
	for name := range line.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if m := line.Metrics[name]; m.Value != 0 || !cfg.Trace {
			fmt.Printf("  %-34s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("  fail_share %.4g (%d failed of %d attempted)\n", share, r.Failed, r.Attempted)
	for _, n := range r.notes {
		fmt.Println("  FAILED CHECK:", n)
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func main() {
	if ranFixtureChild() {
		return
	}
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 42, "seed of the workload's inputs and request schedule")
		seconds  = flag.Float64("seconds", 8, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
		out      = flag.String("out", ".bench_build/out", "directory for trace-<workload>.json, the -all result and scratch files")
		all      = flag.Bool("all", false, "run every workload, untraced then traced, one process each")
		sets     = flag.Int("sets", 1, "with -all: repeat the whole set this many times, alternating order, and compare the sets")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *all {
		os.Exit(runAll(*seed, *seconds, *sets, *out))
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fatalf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	cfg := runConfig{Workload: w.Name, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Out: *out, Size: fullSize}
	line, rep, err := runWorkload(w, cfg)
	if err != nil {
		fatalf("%s: %v", w.Name, err)
	}
	if err := rep.print(cfg, line); err != nil {
		fatalf("%s: %v", w.Name, err)
	}
}

// runWorkload runs one workload and renders its result line.
func runWorkload(w workloadDef, cfg runConfig) (resultLine, *report, error) {
	start, steal := time.Now(), stealNow()
	rep, err := w.run(cfg)
	if err != nil {
		return resultLine{}, nil, err
	}
	// Time the hypervisor withheld while this machine had work to do, as a
	// share of what its CPUs could have run: every timing of a run where it
	// is more than a few percent was taken on a slower machine.
	rep.fact("steal: %.1f%% of %d CPUs over the run", 100*(stealNow()-steal).Seconds()/(time.Since(start).Seconds()*float64(runtime.NumCPU())), runtime.NumCPU())
	if rep.Attempted < 1 {
		return resultLine{}, nil, fmt.Errorf("no operation attempted")
	}
	line, err := rep.result(cfg.Trace)
	return line, rep, err
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}
