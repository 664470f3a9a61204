//go:build ignore

// Command pairs measures a change against its parent on one workload of
// the repository benchmark, back to back on one machine, and records
// the result under bench/history/. Run it through pairs.sh:
//
//	bash bench/pairs.sh [-trace] <parent-rev> <workload> [pairs]
//
// The parent revision is exported with git archive into
// .bench_build/pairs/<sha>/, and any other revision's export there is
// removed first; the checkout, with any uncommitted edits, is
// the change. Each side first makes one unrecorded run (it builds the
// benchmark and trains its fixture). Then pair i runs both sides untraced
// with seed 43+i, the parent first in even pairs and the change first in
// odd ones, for the run length the benchmark sets. The record is
// bench/history/<entry>-<workload>.json, where entry is one past the
// newest CHANGES entry of the parent revision. Per end-to-end metric of
// BENCHMARK.json it holds each side's median and quartiles and the number
// of pairs the change won; it also holds every run's metrics and steal
// share, and the machine stamp.
//
// With -trace every run is traced (-trace 1) and the record, of kind
// "trace", is bench/history/<entry>-<workload>.trace.json: the same
// summary per BENCHMARK.json per-layer metric that the runs measured
// (a traced run reports the layers of other workloads as 0).
//
// With -bench the pairs are Go benchmarks of one package, not a workload:
//
//	bash bench/pairs.sh -bench <parent-rev> <pkg-dir> <regex> [pairs]
//
// builds the package's test binary in each tree once (go test -c), then
// pair i runs each side's binary from its package directory with
// -test.run '^$' -test.bench <regex> -test.benchmem -test.cpu 1, in the
// same alternating order. The parent's binary is built with the
// change's bench_test.go of the package in place of its own (go test
// -overlay), so both sides run the same benchmark code, a benchmark the
// change adds included. The record, of kind "bench", is
// bench/history/<entry>-<last element of pkg-dir>.bench.json: per
// benchmark the summary of its ns/op, B/op and allocs/op, named
// "<Benchmark>:ns/op" and so on; a run's steal share is read from
// /proc/stat around it. A run fails when the regex selects a top-level
// benchmark that prints no row (a partial match whose sub-benchmarks
// all miss), so a record never silently drops one.
//
// The stamp's change_code_sha256 is the SHA-256 of git's raw listing of
// the change's code changes against the parent (worktreeCodeSHA256), so
// the record can be tied to the commit that lands it.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
	Source   string             `json:"source"`         // "pairs.sh"
	Kind     string             `json:"kind,omitempty"` // "trace" for traced runs, "bench" for Go benchmarks, empty for end-to-end ones
	Entry    int                `json:"entry"`
	Workload string             `json:"workload"`
	Package  string             `json:"package,omitempty"` // -bench: the package directory
	Bench    string             `json:"bench,omitempty"`   // -bench: the benchmark regex
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
	// ChangeCodeSHA256 is the SHA-256 of codeDiff(parent_sha) over the
	// checkout, uncommitted and untracked files included.
	ChangeCodeSHA256 string `json:"change_code_sha256,omitempty"`
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
	args, mode := os.Args[1:], ""
	if len(args) > 0 && (args[0] == "-trace" || args[0] == "-bench") {
		mode, args = args[0][1:], args[1:]
	}
	want := 2 // <parent-rev> <workload>, or <parent-rev> <pkg-dir> <regex>
	if mode == "bench" {
		want = 3
	}
	if len(args) < want || len(args) > want+1 {
		fatalf("usage: bash bench/pairs.sh [-trace] <parent-rev> <workload> [pairs]\n       bash bench/pairs.sh -bench <parent-rev> <pkg-dir> <regex> [pairs]")
	}
	parentRev, pairs := args[0], 10
	if len(args) == want+1 {
		n, err := strconv.Atoi(args[want])
		if err != nil || n < 1 {
			fatalf("pairs %q: want a positive count", args[want])
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
		GoVersion:   strings.TrimSpace(output(nil, "go", "env", "GOVERSION")),
		ParentSHA:   git("rev-parse", parentRev+"^{commit}"),
		ChangeSHA:   git("rev-parse", "HEAD"),
		ChangeDirty: git("status", "--porcelain") != "",
	}
	m.ChangeCodeSHA256 = worktreeCodeSHA256(root, m.ParentSHA)
	entry := newestEntry(git("show", m.ParentSHA+":CHANGES.md")) + 1
	var bench struct {
		EndToEnd []metricDecl `json:"end_to_end"`
		PerLayer []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(git("show", m.ParentSHA+":BENCHMARK.json")), &bench); err != nil {
		fatalf("parent BENCHMARK.json: %v", err)
	}

	// Only this parent's export is kept: each holds its own fixtures and
	// build outputs (≈ 140 MB), and the next parent has no use for them.
	parentTree := filepath.Join(root, ".bench_build", "pairs", m.ParentSHA)
	exports, _ := filepath.Glob(filepath.Join(root, ".bench_build", "pairs", strings.Repeat("[0-9a-f]", len(m.ParentSHA))))
	for _, tree := range exports {
		if tree != parentTree {
			if err := os.RemoveAll(tree); err != nil {
				fatalf("remove stale export: %v", err)
			}
		}
	}
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

	h := history{Schema: 1, Source: "pairs.sh", Kind: mode, Entry: entry, Pairs: pairs, Machine: m, Metrics: map[string]summary{}}
	var name string
	var measure func(side string, seed int, logPath string) run
	if mode == "bench" {
		h.Package, h.Bench = filepath.ToSlash(filepath.Clean(args[1])), args[2]
		name = fmt.Sprintf("%d-%s.bench", entry, filepath.Base(h.Package))
		bins := map[string]string{}
		overlay := benchOverlay(root, parentTree, h.Package)
		for side, tree := range trees {
			bins[side] = filepath.Join(root, ".bench_build", "pairs", "bin", side+".test")
			args := []string{"test", "-c", "-o", bins[side]}
			if side == "parent" && overlay != "" {
				args = append(args, "-overlay", overlay)
			}
			build := exec.Command("go", append(args, "./"+h.Package)...)
			build.Dir, build.Stdout, build.Stderr = tree, os.Stderr, os.Stderr
			if err := build.Run(); err != nil {
				fatalf("build %s test binary: %v", side, err)
			}
		}
		measure = func(side string, _ int, logPath string) run {
			return runBench(bins[side], filepath.Join(trees[side], h.Package), h.Bench, logPath)
		}
	} else {
		h.Workload = args[1]
		name = fmt.Sprintf("%d-%s", entry, h.Workload)
		if mode == "trace" {
			name += ".trace"
		}
		trace := mode == "trace"
		for _, side := range []string{"parent", "change"} {
			fmt.Fprintf(os.Stderr, "warm-up: %s\n", side)
			runOnce(trees[side], h.Workload, 42, trace, filepath.Join(logDir, "warmup-"+side+".txt"))
		}
		measure = func(side string, seed int, logPath string) run {
			return runOnce(trees[side], h.Workload, seed, trace, logPath)
		}
	}

	for i := range pairs {
		order := []string{"parent", "change"}
		if i%2 == 1 {
			slices.Reverse(order)
		}
		for j, side := range order {
			r := measure(side, 43+i, filepath.Join(logDir, fmt.Sprintf("%s-%d-%s.txt", name, i, side)))
			r.Pair, r.Side, r.Seed, r.First = i, side, 43+i, j == 0
			h.Runs = append(h.Runs, r)
			fmt.Fprintf(os.Stderr, "pair %d %s: %v\n", i, side, r.Metrics)
		}
	}
	metrics := bench.EndToEnd
	switch mode {
	case "trace":
		metrics = bench.PerLayer
	case "bench":
		metrics = benchMetrics(h.Runs)
	}
	for _, e := range metrics {
		s := summary{Unit: e.Unit, Better: e.Better}
		values := map[string][]float64{"parent": make([]float64, pairs), "change": make([]float64, pairs)}
		reported, measured := true, mode != "trace"
		for _, r := range h.Runs {
			v, ok := r.Metrics[e.Name]
			values[r.Side][r.Pair], reported, measured = v, reported && ok, measured || v != 0
		}
		if !reported || !measured { // a traced run reports another workload's layers as 0
			continue
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
		fmt.Printf("%-32s parent %-12.6g change %-12.6g (IQR %.4g / %.4g)  change better in %d of %d pairs\n",
			e.Name, s.Parent.Median, s.Change.Median, s.Parent.IQR, s.Change.IQR, s.ChangeWins, pairs)
	}
	out, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	path := filepath.Join(root, "bench", "history", name+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Println("wrote", path)
}

type metricDecl struct{ Name, Unit, Better string }

// codePathspec is what counts as code in a change: everything but the
// prose (*.md) and the measurements themselves (bench/history/).
var codePathspec = []string{"--", ".", ":(exclude)*.md", ":(exclude)bench/history"}

// worktreeCodeSHA256 hashes the code changes from parent to the checkout,
// untracked files included. It stages the checkout into a scratch index
// under .bench_build, so the repository's own index is left alone. What
// it hashes is git's raw listing (modes, full blob ids and NUL-terminated
// paths of the changed files), which depends on the two trees only: no
// diff, colour, prefix or path-quoting setting of the user's git config
// changes it. TestBenchHistory lists the commit that adds a history file
// against that commit's parent with diff-tree and the same flags.
func worktreeCodeSHA256(root, parent string) string {
	index := filepath.Join(root, ".bench_build", "pairs", "code.index")
	if err := os.MkdirAll(filepath.Dir(index), 0o755); err != nil {
		fatalf("%v", err)
	}
	_ = os.Remove(index)
	env := append(os.Environ(), "GIT_INDEX_FILE="+index)
	gitEnv(env, "read-tree", "HEAD")
	gitEnv(env, "add", "-A")
	diff := gitEnv(env, append([]string{"diff-index", "--cached", "-z", "--no-abbrev", "--no-renames", parent}, codePathspec...)...)
	sum := sha256.Sum256([]byte(diff))
	return hex.EncodeToString(sum[:])
}

var stealLine = regexp.MustCompile(`steal: ([0-9.]+)% of`)

// runOnce runs one benchmark of the tree, traced or not, keeps its output
// in logPath and returns what its last line reports.
func runOnce(tree, workload string, seed int, trace bool, logPath string) run {
	traceFlag := "0"
	if trace {
		traceFlag = "1"
	}
	cmd := exec.Command("bash", filepath.Join(tree, "benchmark", "run.sh"), "-workload", workload, "-seed", strconv.Itoa(seed), "-trace", traceFlag)
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

// benchOverlay writes a go build overlay that puts the change's
// <pkg>/bench_test.go in the parent tree's package and returns its path,
// or "" when the change has no such file.
func benchOverlay(root, parentTree, pkg string) string {
	src := filepath.Join(root, pkg, "bench_test.go")
	if _, err := os.Stat(src); err != nil {
		return ""
	}
	doc, err := json.Marshal(map[string]map[string]string{"Replace": {filepath.Join(parentTree, pkg, "bench_test.go"): src}})
	if err != nil {
		fatalf("%v", err)
	}
	path := filepath.Join(root, ".bench_build", "pairs", "overlay.json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		fatalf("%v", err)
	}
	return path
}

// benchUnits are the go test -benchmem columns a bench record keeps, with
// the unit and direction of each; TestBenchHistory holds the record to
// the same table.
var benchUnits = map[string]string{"ns/op": "ns", "B/op": "B", "allocs/op": "count"}

// runBench runs one test binary's benchmarks from its package directory,
// keeps the output in logPath and returns each benchmark's ns/op, B/op
// and allocs/op as "<Benchmark>:<column>".
func runBench(bin, dir, regex, logPath string) run {
	cmd := exec.Command(bin, "-test.run", "^$", "-test.bench", regex, "-test.benchmem", "-test.cpu", "1", "-test.timeout", "30m")
	cmd.Dir = dir
	stealBefore, totalBefore := cpuTicks()
	out, err := cmd.CombinedOutput()
	stealAfter, totalAfter := cpuTicks()
	if werr := os.WriteFile(logPath, out, 0o644); werr != nil {
		fatalf("%v", werr)
	}
	if err != nil {
		fatalf("%s: %v (output in %s)", cmd, err, logPath)
	}
	r := run{Correct: true, Metrics: map[string]float64{}}
	reported := map[string]bool{} // top-level benchmarks with a row
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		r.Attempted++
		reported[strings.SplitN(f[0], "/", 2)[0]] = true
		for i := 2; i+1 < len(f); i += 2 {
			if _, ok := benchUnits[f[i+1]]; ok {
				v, err := strconv.ParseFloat(f[i], 64)
				if err != nil {
					fatalf("%s: %q: %v (output in %s)", cmd, line, err, logPath)
				}
				r.Metrics[f[0]+":"+f[i+1]] = v
			}
		}
	}
	if r.Attempted == 0 {
		fatalf("%s: no benchmark matched (output in %s)", cmd, logPath)
	}
	if missing := unreported(bin, dir, regex, reported); len(missing) > 0 {
		fatalf("%s: no row for %s, which the regex selects: go test runs a benchmark its regex matches only in part once, to look for sub-benchmarks, and prints no row when none matches (output in %s)", cmd, strings.Join(missing, ", "), logPath)
	}
	if totalAfter > totalBefore {
		r.StealShare = float64(stealAfter-stealBefore) / float64(totalAfter-totalBefore)
	}
	return r
}

// unreported lists the top-level benchmarks of the test binary that regex
// selects and that have no row in reported. go test selects a top-level
// benchmark when its name matches the first '/' element of one of the
// regex's '|' alternatives, both split outside brackets and parentheses.
func unreported(bin, dir, regex string, reported map[string]bool) []string {
	list := exec.Command(bin, "-test.list", "^Benchmark")
	list.Dir = dir
	names, err := list.Output()
	if err != nil {
		fatalf("%s: %v", list, err)
	}
	var firsts []*regexp.Regexp
	for _, alt := range splitOutside(regex, '|') {
		firsts = append(firsts, regexp.MustCompile(splitOutside(alt, '/')[0]))
	}
	var missing []string
	for _, name := range strings.Fields(string(names)) {
		selected := slices.ContainsFunc(firsts, func(re *regexp.Regexp) bool { return re.MatchString(name) })
		if strings.HasPrefix(name, "Benchmark") && selected && !reported[name] {
			missing = append(missing, name)
		}
	}
	return missing
}

// splitOutside splits s at each sep outside brackets and parentheses,
// skipping escaped characters, as go test splits its -bench regex.
func splitOutside(s string, sep byte) []string {
	var parts []string
	brackets, parens, start := 0, 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			brackets++
		case ']':
			brackets = max(brackets-1, 0)
		case '(':
			if brackets == 0 {
				parens++
			}
		case ')':
			if brackets == 0 {
				parens--
			}
		case '\\':
			i++
		case sep:
			if brackets == 0 && parens == 0 {
				parts, start = append(parts, s[start:i]), i+1
			}
		}
	}
	return append(parts, s[start:])
}

// benchMetrics declares every "<Benchmark>:<column>" the runs report.
func benchMetrics(runs []run) []metricDecl {
	var names []string
	for _, r := range runs {
		for name := range r.Metrics {
			if !slices.Contains(names, name) {
				names = append(names, name)
			}
		}
	}
	slices.Sort(names)
	decls := make([]metricDecl, len(names))
	for i, name := range names {
		column := name[strings.LastIndex(name, ":")+1:]
		decls[i] = metricDecl{Name: name, Unit: benchUnits[column], Better: "lower"}
	}
	return decls
}

// cpuTicks is the machine's steal and total CPU ticks from /proc/stat (0
// and 0 where it is missing).
func cpuTicks() (steal, total int64) {
	b, _ := os.ReadFile("/proc/stat")
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // guest time is already counted in user time
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
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

func git(args ...string) string { return strings.TrimSpace(output(nil, "git", args...)) }

// gitEnv runs git in env and returns its untrimmed output.
func gitEnv(env []string, args ...string) string { return output(env, "git", args...) }

func output(env []string, name string, args ...string) string {
	var stderr bytes.Buffer
	cmd := exec.Command(name, args...)
	cmd.Env = env
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
