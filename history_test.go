package locec_test

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
	"slices"
	"strconv"
	"strings"
	"testing"
)

// benchHistory is the schema bench/pairs.go writes: one change measured
// against its parent on one workload, in alternating pairs.
type benchHistory struct {
	Schema   int    `json:"schema"`
	Source   string `json:"source"`
	Kind     string `json:"kind"`
	Entry    int    `json:"entry"`
	Workload string `json:"workload"`
	Package  string `json:"package"`
	Bench    string `json:"bench"`
	// Benchtime is the -test.benchtime of a "bench" record, if one was
	// given.
	Benchtime string `json:"benchtime"`
	Pairs     int    `json:"pairs"`
	Machine   struct {
		NumCPU           int    `json:"nproc"`
		CPUModel         string `json:"cpu_model"`
		GoVersion        string `json:"go_version"`
		ParentSHA        string `json:"parent_sha"`
		ChangeSHA        string `json:"change_sha"`
		ChangeDirty      bool   `json:"change_dirty"`
		ChangeCodeSHA256 string `json:"change_code_sha256"`
	} `json:"machine"`
	Metrics map[string]struct {
		Unit       string      `json:"unit"`
		Better     string      `json:"better"`
		Parent     benchSpread `json:"parent"`
		Change     benchSpread `json:"change"`
		ChangeWins int         `json:"change_wins"`
		Ties       int         `json:"ties"`
	} `json:"metrics"`
	Runs []struct {
		Pair       int                `json:"pair"`
		Side       string             `json:"side"`
		Seed       int                `json:"seed"`
		First      bool               `json:"first"`
		Correct    bool               `json:"correct"`
		Attempted  int                `json:"attempted"`
		Failed     int                `json:"failed"`
		StealShare float64            `json:"steal_share"`
		Metrics    map[string]float64 `json:"metrics"`
	} `json:"runs"`
}

type benchSpread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	IQR    float64 `json:"iqr"`
}

// spreadOf is bench/pairs.go's median and quartiles of xs: linear
// interpolation between order statistics.
func spreadOf(xs []float64) benchSpread {
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
	return benchSpread{Median: q(0.5), Q1: q(0.25), Q3: q(0.75), IQR: q(0.75) - q(0.25)}
}

// perfOptEntry matches a CHANGES entry whose title carries [perf_opt].
var perfOptEntry = regexp.MustCompile(`(?m)^- [0-9-]+ — PR ([0-9]+): \[perf_opt\]`)

// benchColumns are the go test -benchmem columns a "bench" record keeps,
// with the unit bench/pairs.go gives each; every one is better lower.
var benchColumns = map[string]string{"ns/op": "ns", "B/op": "B", "allocs/op": "count"}

// benchColumn is bench/pairs.go's benchUnit: a benchColumns column, or a
// benchmark's own millisecond metric ("<name>-ms"), unit "ms".
func benchColumn(column string) (string, bool) {
	if unit, ok := benchColumns[column]; ok {
		return unit, true
	}
	return "ms", strings.HasSuffix(column, "-ms") && !strings.Contains(column, "/")
}

// TestBenchHistory holds every file under bench/history/ to the schema
// bench/pairs.go writes: named after a workload, <entry>-<workload>.json
// over the end-to-end metrics BENCHMARK.json declares, or of kind "trace"
// <entry>-<workload>.trace.json over per-layer metrics it declares; or of
// kind "bench" <entry>-<package>.bench.json over the ns/op, B/op,
// allocs/op and millisecond metrics of a package's Go benchmarks. Every file has both sides of
// every pair recorded and win counts, medians and quartiles that the runs
// bear out. Every [perf_opt] CHANGES entry from 44 on, the
// first measured with bench/pairs.sh, has at least one such file. Where
// git history is present, a file stamped with change_code_sha256 was
// measured on the code its commit landed (codeDiffSHA256).
func TestBenchHistory(t *testing.T) {
	type metricDecl struct{ Name, Unit, Better string }
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDecl            `json:"end_to_end"`
		PerLayer  []metricDecl            `json:"per_layer"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	perLayer := map[string]metricDecl{}
	for _, e := range bench.PerLayer {
		perLayer[e.Name] = e
	}
	hasGit := gitHistory(t)
	files, err := filepath.Glob(filepath.Join("bench", "history", "*"))
	if err != nil {
		t.Fatal(err)
	}
	changes, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range perfOptEntry.FindAllSubmatch(changes, -1) {
		entry, _ := strconv.Atoi(string(m[1]))
		recorded, _ := filepath.Glob(filepath.Join("bench", "history", fmt.Sprintf("%d-*.json", entry)))
		if entry >= 44 && len(recorded) == 0 {
			t.Errorf("CHANGES entry %d is [perf_opt] but bench/history/ has no %d-<workload>.json (bash bench/pairs.sh <parent-rev> <workload>)", entry, entry)
		}
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var h benchHistory
		if err := dec.Decode(&h); err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		errorf := func(format string, args ...any) { t.Errorf("%s: %s", path, fmt.Sprintf(format, args...)) }
		metrics, name := bench.EndToEnd, h.Workload
		switch h.Kind {
		case "trace":
			metrics, name = nil, h.Workload+".trace"
			for metric := range h.Metrics {
				if e, ok := perLayer[metric]; ok {
					metrics = append(metrics, e)
				} else {
					errorf("%s is not a per-layer metric of BENCHMARK.json", metric)
				}
			}
		case "bench":
			metrics, name = nil, filepath.Base(h.Package)+".bench"
			for metric := range h.Metrics {
				fn, column, _ := strings.Cut(metric, ":")
				if unit, ok := benchColumn(column); ok && strings.HasPrefix(fn, "Benchmark") {
					metrics = append(metrics, metricDecl{metric, unit, "lower"})
				} else {
					errorf("%s is not <Benchmark>:<ns/op|B/op|allocs/op|<name>-ms>", metric)
				}
			}
		}
		if h.Kind != "" && len(metrics) == 0 {
			errorf("a %s record summarises no metric", h.Kind)
		}
		if want := fmt.Sprintf("%d-%s.json", h.Entry, name); filepath.Base(path) != want {
			errorf("named %s, want %s", filepath.Base(path), want)
		}
		isBench := h.Kind == "bench"
		if h.Schema != 1 || h.Source != "pairs.sh" || (h.Kind != "" && h.Kind != "trace" && !isBench) || h.Entry < 1 || h.Pairs < 1 ||
			workloads[h.Workload] == isBench || (h.Package != "") != isBench || (h.Bench != "") != isBench || (h.Benchtime != "" && !isBench) {
			errorf("header schema=%d source=%q kind=%q entry=%d workload=%q package=%q bench=%q pairs=%d",
				h.Schema, h.Source, h.Kind, h.Entry, h.Workload, h.Package, h.Bench, h.Pairs)
		}
		m := h.Machine
		if m.NumCPU < 1 || m.CPUModel == "" || m.GoVersion == "" || len(m.ParentSHA) != 40 || len(m.ChangeSHA) != 40 {
			errorf("incomplete machine stamp %+v", m)
		}
		if len(h.Runs) != 2*h.Pairs {
			errorf("%d runs for %d pairs", len(h.Runs), h.Pairs)
		}
		sides := map[string]int{}
		for _, r := range h.Runs {
			sides[fmt.Sprint(r.Pair, r.Side)]++
			if r.Pair < 0 || r.Pair >= h.Pairs || (r.Side != "parent" && r.Side != "change") || r.StealShare < 0 || r.StealShare > 1 || r.Attempted < r.Failed {
				errorf("run %+v", r)
			}
			for _, e := range metrics {
				if _, ok := r.Metrics[e.Name]; !ok {
					errorf("pair %d %s: no %s", r.Pair, r.Side, e.Name)
				}
			}
		}
		for key, n := range sides {
			if n != 1 {
				errorf("pair/side %s recorded %d times", key, n)
			}
		}
		for _, e := range metrics {
			s, ok := h.Metrics[e.Name]
			if !ok {
				errorf("no summary of %s", e.Name)
				continue
			}
			byPair := map[string][]float64{"parent": make([]float64, h.Pairs), "change": make([]float64, h.Pairs)}
			for _, r := range h.Runs {
				if byPair[r.Side] != nil && r.Pair >= 0 && r.Pair < h.Pairs {
					byPair[r.Side][r.Pair] = r.Metrics[e.Name]
				}
			}
			wins, ties := 0, 0
			for i := range h.Pairs {
				p, c := byPair["parent"][i], byPair["change"][i]
				if p == c {
					ties++
				} else if (c < p) == (e.Better == "lower") {
					wins++
				}
			}
			if s.Unit != e.Unit || s.Better != e.Better || s.ChangeWins != wins || s.Ties != ties {
				errorf("%s: unit %q better %q, %d wins and %d ties; the runs say %d and %d", e.Name, s.Unit, s.Better, s.ChangeWins, s.Ties, wins, ties)
			}
			for side, sp := range map[string]benchSpread{"parent": s.Parent, "change": s.Change} {
				if want := spreadOf(byPair[side]); sp != want {
					errorf("%s %s: recorded %+v; the runs say %+v", e.Name, side, sp, want)
				}
			}
		}
		if h.Machine.ChangeCodeSHA256 != "" && hasGit {
			switch got, why := codeDiffSHA256(path); {
			case why != "":
				t.Logf("%s: code diff not checked: %s", path, why)
			case got != h.Machine.ChangeCodeSHA256:
				errorf("measured code diff sha256 %s, but the commit adding the file changes code with sha256 %s", h.Machine.ChangeCodeSHA256, got)
			}
		}
	}
}

// gitHistory reports whether git and the repository's history are there,
// and logs why not (an exported tree, say).
func gitHistory(t *testing.T) bool {
	if _, err := exec.LookPath("git"); err != nil {
		t.Log("no git: history files' code diffs not checked")
		return false
	}
	if _, err := runGit("rev-parse", "--verify", "-q", "HEAD"); err != nil {
		t.Log("no git history: history files' code diffs not checked")
		return false
	}
	return true
}

func runGit(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	return string(out), err
}

// codeDiffSHA256 is bench/pairs.go's change_code_sha256 for the commit
// that added path: the SHA-256 of git's raw listing of its code changes
// against its parent (pairs.go's diff-index flags and pathspec, as
// diff-tree). why says why there is none to compare.
func codeDiffSHA256(path string) (sum, why string) {
	out, err := runGit("log", "--diff-filter=A", "--format=%H", "-n", "1", "--", path)
	commit := strings.TrimSpace(out)
	if err != nil || commit == "" {
		return "", "the file is not committed"
	}
	if _, err := runGit("rev-parse", "--verify", "-q", commit+"^"); err != nil {
		return "", "the commit adding it has no parent in this clone"
	}
	args := []string{"diff-tree", "-r", "-z", "--no-abbrev", "--no-renames", commit + "^", commit,
		"--", ".", ":(exclude)*.md", ":(exclude)bench/history"}
	diff, err := runGit(args...)
	if err != nil {
		return "", fmt.Sprintf("git diff-tree: %v", err)
	}
	h := sha256.Sum256([]byte(diff))
	return hex.EncodeToString(h[:]), ""
}
