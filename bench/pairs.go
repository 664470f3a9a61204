//go:build ignore

// Command pairs measures a change against its parent on one workload of
// the repository benchmark, back to back on one machine, and records
// the result under bench/history/. Run it through pairs.sh:
//
//	bash bench/pairs.sh <parent-rev> <workload> [pairs]
//
// The parent revision is exported with git archive into
// .bench_build/pairs/<sha>/; the checkout, with any uncommitted edits, is
// the change. Each side first makes one unrecorded run (it builds the
// benchmark and trains its fixture). Then pair i runs both sides untraced
// with seed 43+i, the parent first in even pairs and the change first in
// odd ones, for the run length the benchmark sets. The record is
// bench/history/<entry>-<workload>.json, where entry is one past the
// newest CHANGES entry of the parent revision. Per end-to-end metric of
// BENCHMARK.json it holds each side's median and quartiles and the number
// of pairs the change won; it also holds every run's metrics and steal
// share, and the machine stamp.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// history is the schema of a bench/history file (TestBenchHistory in the
// repository root checks every file against it).
type history struct {
	Schema   int                `json:"schema"`
	Source   string             `json:"source"` // "pairs.sh"
	Entry    int                `json:"entry"`
	Workload string             `json:"workload"`
	Pairs    int                `json:"pairs"`
	Machine  machine            `json:"machine"`
	Metrics  map[string]summary `json:"metrics"`
	Runs     []run              `json:"runs"`
}

type machine struct {
	NumCPU      int    `json:"nproc"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	ParentSHA   string `json:"parent_sha"`
	ChangeSHA   string `json:"change_sha"`   // HEAD of the checkout
	ChangeDirty bool   `json:"change_dirty"` // the checkout had uncommitted edits on top of it
}

type summary struct {
	Unit       string `json:"unit"`
	Better     string `json:"better"`
	Parent     spread `json:"parent"`
	Change     spread `json:"change"`
	ChangeWins int    `json:"change_wins"` // pairs in which the change read better
	Ties       int    `json:"ties"`
}

// spread is a side's median and quartiles (linear interpolation between
// order statistics); IQR is Q3 − Q1.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	IQR    float64 `json:"iqr"`
}

type run struct {
	Pair       int                `json:"pair"`
	Side       string             `json:"side"` // "parent" or "change"
	Seed       int                `json:"seed"`
	First      bool               `json:"first"` // ran first in its pair
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	StealShare float64            `json:"steal_share"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	if len(os.Args) < 3 || len(os.Args) > 4 {
		fatalf("usage: bash bench/pairs.sh <parent-rev> <workload> [pairs]")
	}
	parentRev, workload, pairs := os.Args[1], os.Args[2], 10
	if len(os.Args) == 4 {
		n, err := strconv.Atoi(os.Args[3])
		if err != nil || n < 1 {
			fatalf("pairs %q: want a positive count", os.Args[3])
		}
		pairs = n
	}
	root := git("rev-parse", "--show-toplevel")
	if err := os.Chdir(root); err != nil {
		fatalf("%v", err)
	}
	m := machine{
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		GoVersion:   strings.TrimSpace(output("go", "env", "GOVERSION")),
		ParentSHA:   git("rev-parse", parentRev+"^{commit}"),
		ChangeSHA:   git("rev-parse", "HEAD"),
		ChangeDirty: git("status", "--porcelain") != "",
	}
	entry := newestEntry(git("show", m.ParentSHA+":CHANGES.md")) + 1
	var bench struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
	}
	if err := json.Unmarshal([]byte(git("show", m.ParentSHA+":BENCHMARK.json")), &bench); err != nil {
		fatalf("parent BENCHMARK.json: %v", err)
	}

	parentTree := filepath.Join(root, ".bench_build", "pairs", m.ParentSHA)
	if _, err := os.Stat(parentTree); err != nil {
		if err := os.MkdirAll(parentTree, 0o755); err != nil {
			fatalf("%v", err)
		}
		archive := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", m.ParentSHA, parentTree)
		archive.Stderr = os.Stderr
		if err := archive.Run(); err != nil {
			_ = os.RemoveAll(parentTree)
			fatalf("export %s: %v", m.ParentSHA, err)
		}
	}
	trees := map[string]string{"parent": parentTree, "change": root}
	logDir := filepath.Join(root, ".bench_build", "pairs", "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	for _, side := range []string{"parent", "change"} {
		fmt.Fprintf(os.Stderr, "warm-up: %s\n", side)
		runOnce(trees[side], workload, 42, filepath.Join(logDir, "warmup-"+side+".txt"))
	}

	h := history{Schema: 1, Source: "pairs.sh", Entry: entry, Workload: workload, Pairs: pairs, Machine: m, Metrics: map[string]summary{}}
	for i := range pairs {
		order := []string{"parent", "change"}
		if i%2 == 1 {
			slices.Reverse(order)
		}
		for j, side := range order {
			r := runOnce(trees[side], workload, 43+i, filepath.Join(logDir, fmt.Sprintf("%d-%s-%d-%s.txt", entry, workload, i, side)))
			r.Pair, r.Side, r.Seed, r.First = i, side, 43+i, j == 0
			h.Runs = append(h.Runs, r)
			fmt.Fprintf(os.Stderr, "pair %d %s: %v\n", i, side, r.Metrics)
		}
	}
	for _, e := range bench.EndToEnd {
		s := summary{Unit: e.Unit, Better: e.Better}
		values := map[string][]float64{"parent": make([]float64, pairs), "change": make([]float64, pairs)}
		for _, r := range h.Runs {
			values[r.Side][r.Pair] = r.Metrics[e.Name]
		}
		for i := range pairs {
			switch p, c := values["parent"][i], values["change"][i]; {
			case p == c:
				s.Ties++
			case (c < p) == (e.Better == "lower"):
				s.ChangeWins++
			}
		}
		s.Parent, s.Change = spreadOf(values["parent"]), spreadOf(values["change"])
		h.Metrics[e.Name] = s
		fmt.Printf("%-16s parent %-12.6g change %-12.6g (IQR %.4g / %.4g)  change better in %d of %d pairs\n",
			e.Name, s.Parent.Median, s.Change.Median, s.Parent.IQR, s.Change.IQR, s.ChangeWins, pairs)
	}
	out, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	path := filepath.Join(root, "bench", "history", fmt.Sprintf("%d-%s.json", entry, workload))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Println("wrote", path)
}

var stealLine = regexp.MustCompile(`steal: ([0-9.]+)% of`)

// runOnce runs one untraced benchmark of the tree, keeps its output in
// logPath and returns what its last line reports.
func runOnce(tree, workload string, seed int, logPath string) run {
	cmd := exec.Command("bash", filepath.Join(tree, "benchmark", "run.sh"), "-workload", workload, "-seed", strconv.Itoa(seed), "-trace", "0")
	cmd.Dir = tree
	out, err := cmd.CombinedOutput()
	if werr := os.WriteFile(logPath, out, 0o644); werr != nil {
		fatalf("%v", werr)
	}
	if err != nil {
		fatalf("%s: %v (output in %s)", cmd, err, logPath)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		fatalf("%s: last line: %v (output in %s)", cmd, err, logPath)
	}
	r := run{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]float64{}}
	for name, v := range res.Metrics {
		r.Metrics[name] = v.Value
	}
	m := stealLine.FindSubmatch(out)
	if m == nil {
		fatalf("%s: no steal line (output in %s)", cmd, logPath)
	}
	pct, _ := strconv.ParseFloat(string(m[1]), 64)
	r.StealShare = pct / 100
	return r
}

// spreadOf is the median and quartiles of xs.
func spreadOf(xs []float64) spread {
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		if lo == len(s)-1 {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return spread{Median: q(0.5), Q1: q(0.25), Q3: q(0.75), IQR: q(0.75) - q(0.25)}
}

var entryLine = regexp.MustCompile(`(?m)^- [0-9-]+ — PR ([0-9]+):`)

// newestEntry is the number of the first (newest) entry of a CHANGES.md.
func newestEntry(changes string) int {
	m := entryLine.FindStringSubmatch(changes)
	if m == nil {
		fatalf("no PR entry in the parent's CHANGES.md")
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

func git(args ...string) string { return strings.TrimSpace(output("git", args...)) }

func output(name string, args ...string) string {
	var stderr bytes.Buffer
	cmd := exec.Command(name, args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		fatalf("%s: %v: %s", cmd, err, stderr.String())
	}
	return string(out)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pairs: "+format+"\n", args...)
	os.Exit(1)
}
