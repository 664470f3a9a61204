package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (never inside the program). Spans of one request or one
// pipeline run share ID; Parent is the index of the span that caused this
// one, -1 for a root.
type span struct {
	Name     string             `json:"name"`
	Workload string             `json:"workload"`
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing switched off: every method is a no-op, so the untraced run
// executes the same call sites.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, id, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Workload: t.workload, ID: id, Parent: parent,
		StartNs: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// end closes a span and returns its duration; counts taken at the same
// boundary travel with it.
func (t *tracer) end(idx int, counts map[string]float64) time.Duration {
	if t == nil || idx < 0 {
		return 0
	}
	s := &t.spans[idx]
	s.EndNs = time.Since(t.t0).Nanoseconds()
	s.Counts = counts
	return time.Duration(s.EndNs - s.StartNs)
}

// durations returns the duration of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.EndNs-s.StartNs))
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children may nest, overlap each other
// (parallel parts) or stick out of the parent; the covered part is the
// union of the child intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNs - s.StartNs - coveredNs(children[i], s.StartNs, s.EndNs)
	}
	return self
}

// coveredNs is the length of the union of ivs clipped to [lo, hi].
func coveredNs(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var covered int64
	cursor := lo
	for _, iv := range ivs {
		start, end := max(iv[0], cursor), min(iv[1], hi)
		if end > start {
			covered += end - start
			cursor = end
		}
	}
	return covered
}

// traceFile is the layout of trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Machine  machineStamp       `json:"machine"`
	Metrics  map[string]float64 `json:"metrics"`
	Spans    []span             `json:"spans"`
	SelfNs   []int64            `json:"self_ns"`
}

// write stores the spans, their self times and the per-layer metrics
// derived from them as <dir>/trace-<workload>.json.
func (t *tracer) write(dir string, seed int64, metrics map[string]float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(traceFile{
		Workload: t.workload, Seed: seed, Machine: stampMachine(),
		Metrics: metrics, Spans: t.spans, SelfNs: selfTimes(t.spans),
	})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
