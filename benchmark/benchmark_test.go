package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"locec/internal/core"
	"locec/internal/graph"
)

// TestMain lets the test binary serve as its own fixture child, the way
// the benchmark binary does.
func TestMain(m *testing.M) {
	if ranFixtureChild() {
		return
	}
	os.Exit(m.Run())
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	got := summarize(xs)
	if got.N != 1000 || got.TailPct != 99 || got.Median != 499.5 || got.Tail < 989 || got.Tail > 990 {
		t.Errorf("summarize(0..999) = %+v", got)
	}
}

func TestWindowMedian(t *testing.T) {
	// Three full 1 s windows holding 2, 4 and 3 completions, then a partial
	// window that must not count.
	at := func(ms ...int) []time.Duration {
		out := make([]time.Duration, len(ms))
		for i, m := range ms {
			out[i] = time.Duration(m) * time.Millisecond
		}
		return out
	}
	done := at(100, 900, 1000, 1200, 1500, 1999, 2100, 2500, 2900, 3050, 3060, 3070, 3080, 3090)
	if got := windowMedian(done, time.Second, 3100*time.Millisecond); got != 3 {
		t.Errorf("median of windows {2,4,3} = %g, want 3", got)
	}
	if got := windowMedian(at(10, 20, 30, 40), 100*time.Millisecond, 250*time.Millisecond); got != 20 {
		t.Errorf("two 100 ms windows {4,0}: %g/s, want 20", got)
	}
	// No full window: the overall rate.
	if got := windowMedian(at(100, 200, 300), time.Second, 500*time.Millisecond); got != 6 {
		t.Errorf("no full window: %g/s, want 6", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "a", Parent: 0, StartNs: 10, EndNs: 40},        // nested
		{Name: "a.inner", Parent: 1, StartNs: 15, EndNs: 25},  // grandchild: not root's
		{Name: "b", Parent: 0, StartNs: 30, EndNs: 60},        // overlaps a by 10
		{Name: "c", Parent: 0, StartNs: 90, EndNs: 120},       // sticks out by 20
		{Name: "d", Parent: 0, StartNs: 35, EndNs: 38},        // inside a and b
		{Name: "orphan", Parent: 99, StartNs: 0, EndNs: 7},    // bad parent index
		{Name: "open", Parent: -1, StartNs: 50, EndNs: 50},    // zero length
		{Name: "before", Parent: 0, StartNs: -20, EndNs: 5},   // starts early
		{Name: "same", Parent: 0, StartNs: 10, EndNs: 40},     // duplicate of a
		{Name: "leaf2", Parent: 3, StartNs: 30, EndNs: 60},    // covers b whole
		{Name: "leaf3", Parent: 4, StartNs: 100, EndNs: 110},  // inside c
		{Name: "leaf3b", Parent: 4, StartNs: 105, EndNs: 120}, // overlaps leaf3
		{Name: "unsorted", Parent: 4, StartNs: 90, EndNs: 95}, // earlier, listed later
		{Name: "gap", Parent: -1, StartNs: 200, EndNs: 300},   // no children
		{Name: "gap.child", Parent: 14, StartNs: 250, EndNs: 260},
	}
	self := selfTimes(spans)
	want := map[string]int64{
		"root":    100 - (5 + 50 + 10), // [-20,5]→5, a∪b∪d∪same=[10,60]→50, c clipped→10
		"a":       30 - 10,
		"a.inner": 10,
		"b":       0,
		"c":       30 - (5 + 20), // unsorted [90,95], leaf3∪leaf3b = [100,120]
		"orphan":  7,
		"open":    0,
		"gap":     90,
	}
	for i, s := range spans {
		if w, ok := want[s.Name]; ok && self[i] != w {
			t.Errorf("self time of %s = %d, want %d", s.Name, self[i], w)
		}
	}
}

func testGraph(t *testing.T, users int) *graph.Graph {
	t.Helper()
	ds, err := generate(datasetSpec{Users: users, Density: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ds.G
}

func renderReads(s *readSchedule, n int) []byte {
	var b bytes.Buffer
	for i := range n {
		method, path, body := s.at(i).request()
		fmt.Fprintf(&b, "%s %s %s\n", method, path, body)
	}
	return b.Bytes()
}

func renderMutations(s *mutationSchedule, n int) []byte {
	var b bytes.Buffer
	for range n {
		b.Write(mutationBody(s.next()))
	}
	return b.Bytes()
}

func TestScheduleDeterminism(t *testing.T) {
	g := testGraph(t, 150)
	a, b, c := renderReads(newReadSchedule(7, g), 2000), renderReads(newReadSchedule(7, g), 2000), renderReads(newReadSchedule(8, g), 2000)
	if !bytes.Equal(a, b) {
		t.Error("read schedule differs between two generations with one seed")
	}
	if bytes.Equal(a, c) {
		t.Error("read schedule is the same for two seeds")
	}
	// A later entry does not depend on the entries before it.
	s := newReadSchedule(7, g)
	if x, y := s.at(1234), newReadSchedule(7, g).at(1234); x.Kind != y.Kind || x.Edge != y.Edge || x.Node != y.Node {
		t.Error("read schedule entry depends on access order")
	}
	kinds := [numOpKinds]int{}
	hot := map[string]bool{}
	for i := range 10000 {
		op := s.at(i)
		kinds[op.Kind]++
		if op.Kind == opClassifyHot {
			hot[string(classifyBody(op.Batch))] = true
		}
		asked := op.Batch
		if op.Kind == opEdge {
			asked = []graph.Edge{op.Edge}
		}
		for _, e := range asked {
			if !g.HasEdge(e.U, e.V) {
				t.Fatalf("entry %d asks for {%d,%d}, not an edge", i, e.U, e.V)
			}
		}
	}
	if kinds[opEdge] < 6700 || kinds[opEdge] > 7300 || kinds[opCommunities] < 800 || kinds[opCommunities] > 1200 ||
		kinds[opClassifyHot] < 800 || kinds[opClassifyUnique] < 800 {
		t.Errorf("mix over 10000 entries: %v, want about 70/10/10/10", kinds)
	}
	if len(hot) > hotBatches {
		t.Errorf("%d distinct recurring batches, want at most %d", len(hot), hotBatches)
	}

	ma, mb, mc := renderMutations(newMutationSchedule(7, g), 500), renderMutations(newMutationSchedule(7, g), 500), renderMutations(newMutationSchedule(8, g), 500)
	if !bytes.Equal(ma, mb) {
		t.Error("mutation schedule differs between two generations with one seed")
	}
	if bytes.Equal(ma, mc) {
		t.Error("mutation schedule is the same for two seeds")
	}
}

func TestMutationScheduleIsValid(t *testing.T) {
	g := testGraph(t, 150)
	present := map[uint64]bool{}
	g.ForEachEdge(func(u, v graph.NodeID) { present[(graph.Edge{U: u, V: v}).Key()] = true })
	s := newMutationSchedule(3, g)
	kinds := map[core.MutationKind]int{}
	for i := range 1000 {
		m := s.next()
		k := (graph.Edge{U: m.U, V: m.V}).Key()
		kinds[m.Kind]++
		switch m.Kind {
		case core.MutAdd:
			if present[k] || m.U == m.V {
				t.Fatalf("mutation %d adds {%d,%d}, already present", i, m.U, m.V)
			}
			present[k] = true
		case core.MutRemove:
			if !present[k] {
				t.Fatalf("mutation %d removes {%d,%d}, absent", i, m.U, m.V)
			}
			delete(present, k)
		case core.MutRelabel:
			if !present[k] {
				t.Fatalf("mutation %d relabels {%d,%d}, absent", i, m.U, m.V)
			}
		}
		for _, e := range s.neighbourhood(m, classifyBatch) {
			if !present[e.Key()] {
				t.Fatalf("neighbourhood of mutation %d lists {%d,%d}, absent", i, e.U, e.V)
			}
		}
	}
	if len(present) != s.numEdges {
		t.Errorf("mirror counts %d edges, replay has %d", s.numEdges, len(present))
	}
	if kinds[core.MutAdd] < 500 || kinds[core.MutRemove] < 150 || kinds[core.MutRelabel] < 80 {
		t.Errorf("mix over 1000 mutations: %v, want about 600/250/150", kinds)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric and workload
// tables of this package in step, inside the limits of the contract.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q differs from %q (or its why is over 200 characters)", i, w.Name, workloads[i].Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the benchmark", len(got), kind, len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in the benchmark", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v breaks the naming contract", d)
		}
		seen[d.Name] = true
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" && d.Bound > 0)
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q breaks the naming contract", w.Name)
		}
		seen[w.Name] = true
	}
	if !hasSetup || len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Error("BENCHMARK.json is outside the contract's limits")
	}
	if runs := 4 + 22*len(workloads); float64(runs)*float64(doc.RunSeconds) > 3420 {
		t.Errorf("%d runs of %d s cannot fit the driver's 3420 s", runs, doc.RunSeconds)
	}
}

// toySize shrinks every workload so that the smoke test walks all of the
// benchmark's code in seconds. Quality floors do not hold at this scale.
var toySize = sizes{
	XGB:          batchSpec{Data: datasetSpec{Users: 120, Density: 1}, Pipe: pipelineSpec{"labelprop", "xgb"}, MinRuns: 1},
	GN:           batchSpec{Data: datasetSpec{Users: 60, Density: 1.2}, Pipe: pipelineSpec{"gn", "xgb"}, MinRuns: 1},
	CNN:          batchSpec{Data: datasetSpec{Users: 30, Density: 1}, Pipe: pipelineSpec{"gn", "cnn"}, MinRuns: 1},
	ServeUsers:   120,
	SetupRepeats: 2,
	WarmupOps:    50,
	ReplayOps:    100,
}

// TestSmoke runs all six workloads at toy scale, untraced and traced, and
// checks the shape of what they report: every metric of the mode, nothing
// else, no failed operation.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				cfg := runConfig{Workload: w.Name, Seed: 5, Seconds: 0.05, Trace: trace, Out: out, Size: toySize}
				line, rep, err := runWorkload(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d: %v", line.Correct, line.Failed, line.Attempted, rep.notes)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(line.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, want %d", len(line.Metrics), len(defs))
				}
				nonZero := 0
				for _, d := range defs {
					m, ok := line.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: reported=%v unit=%q, want unit %q", d.Name, ok, m.Unit, d.Unit)
					}
					if m.Value != 0 {
						nonZero++
					} else if !trace {
						t.Errorf("end-to-end metric %s is 0", d.Name)
					}
				}
				if trace {
					if nonZero < 10 {
						t.Errorf("only %d per-layer metrics are non-zero", nonZero)
					}
					if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
	left, _ := filepath.Glob(filepath.Join(out, "scratch-*"))
	if len(left) > 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}
