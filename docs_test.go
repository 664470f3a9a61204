package locec_test

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// mdLink matches inline markdown links/images: [text](target).
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// docFiles returns every markdown file the link checker covers: the
// repo-root documents, everything under docs/ and the verify skill.
func docFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	return append(append(files, sub...), filepath.Join(".claude", "skills", "verify", "SKILL.md"))
}

// repoPath matches a repo-root path written in prose or a command line:
// cmd/<name>, internal/<pkg>[/file.go], bench/<file>, docs/<file>,
// examples/<dir>. The leading group keeps it off longer words
// (benchmark/, .bench_build/); go-tool wildcards and sentence punctuation
// are trimmed before the stat.
var repoPath = regexp.MustCompile(`(?:^|[^A-Za-z0-9_-])((?:cmd|internal|bench|docs|examples)/[A-Za-z0-9_][A-Za-z0-9_./-]*)`)

// TestDocLinks fails on dead relative links in the markdown docs — the
// drift this repo has actually suffered (renamed docs, moved anchors) —
// and, in the documents that describe the tree as it is (README, docs/,
// the verify skill; the other root documents are history), on any named
// repo path that no longer exists. External URLs are out of scope:
// availability of the network is not a property of this repository.
func TestDocLinks(t *testing.T) {
	checked := 0
	for _, file := range docFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		// The other root documents (CHANGES, ROADMAP, ISSUE, …) are history.
		if file == "README.md" || filepath.Dir(file) != "." {
			for _, m := range repoPath.FindAllStringSubmatch(string(data), -1) {
				path := strings.TrimRight(m[1], "./-")
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s: names %q, which does not exist", file, path)
				}
			}
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue // external
			case strings.HasPrefix(target, "#"):
				continue // same-document anchor
			}
			// Strip a trailing anchor from a relative path.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: dead link %q (resolved %s): %v", file, m[1], resolved, err)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("link checker found no relative links; is it looking at the right files?")
	}
	t.Logf("checked %d relative links across %d files", checked, len(docFiles(t)))
}

// datasetMapIndex matches a direct index of one of social.Dataset's three
// per-edge maps (the field name is distinctive enough that a selector
// followed by "[" is what the scan keys on).
var datasetMapIndex = regexp.MustCompile(`\.(TrueLabels|Revealed|Interactions)\[`)

// directMapIndexAllowed lists the only places that may index those maps
// directly, each with its reason. Everything else reads through the
// accessors (TrueLabel, IsRevealed, InteractionRow, …): a dataset that came
// out of a mutation epoch carries an edit delta the maps do not show, so a
// direct index compiles, passes on a generated dataset, and reads stale
// values on a served one.
var directMapIndexAllowed = map[string]string{
	"internal/social/":           "owns the maps and the delta that shadows them",
	"internal/wechat/":           "the generator: builds the maps of a dataset nobody has mutated yet",
	"internal/artifact/codec.go": "decodeDataset builds the maps of a freshly loaded dataset",
	"internal/wal/codec.go":      "indexes core.Mutation.Interactions, a slice, not the dataset map",
	"benchmark/":                 "indexes generated datasets only; moves to the accessors in a [benchmark] PR",
}

// sourceRules are the conventions the source walk below enforces: a line
// matching pattern, in a file under none of the allowed prefixes (each with
// its reason), fails with message.
var sourceRules = []struct {
	pattern   *regexp.Regexp
	testFiles bool // whether _test.go files are held to the rule too
	allowed   map[string]string
	message   string
}{
	{datasetMapIndex, true, directMapIndexAllowed,
		"indexes a dataset map directly; use the social.Dataset accessors (or add the file to directMapIndexAllowed with a reason)"},
	// One way to go parallel: the fan-out, its width and the determinism
	// rule live in internal/parallel and nowhere else.
	{regexp.MustCompile(`sync\.WaitGroup`), false, map[string]string{
		"internal/parallel/": "the one home of the fan-out",
		"benchmark/":         "its own module: load generators and clients, not the program",
	}, "hand-rolls a fan-out; use parallel.For / parallel.Each"},
	// Seeded replay is deleted; its counter survives as a compile shim.
	{regexp.MustCompile(`SeededEgos`), true, map[string]string{
		"internal/core/incremental.go": "the declaration, never written",
		"benchmark/":                   "reads the field until the [benchmark] PR of ROADMAP 1(a)",
	}, "touches core.ApplyStats.SeededEgos, a shim kept only so benchmark/ compiles (ROADMAP 1(a)); nothing writes it"},
	// One burst rule: the live applier, boot recovery and wal-replay apply
	// mutation batches through core.Pipeline.ApplyBurst, so they cannot
	// drift apart on which batches a burst keeps.
	{regexp.MustCompile(`\.ApplyMutations\(`), false, map[string]string{
		"internal/core/": "the burst applier and the engine itself",
		"benchmark/":     "its own module: times single epochs and applies its whole log as one",
	}, "applies a mutation batch directly; go through the burst applier (core.Pipeline.ApplyBurst)"},
	// One restore path: the server, wal-replay and ReadArtifact turn an
	// artifact into dataset, result and pipeline through Artifact.Restore,
	// so they cannot drift apart on when a restored snapshot is mutable.
	{regexp.MustCompile(`RunFromArtifact\(`), false, map[string]string{
		"internal/core/":     "declares the import half of the Export seam",
		"internal/artifact/": "Artifact.Restore, its one caller",
		"benchmark/":         "its own module: restores its fixtures in process",
	}, "restores an artifact by hand; go through artifact.(*Artifact).Restore"},
}

// TestDatasetMapsReadThroughAccessors walks every Go file of the repository
// once and holds each line to sourceRules: no direct index of
// Dataset.TrueLabels / Revealed / Interactions, no sync.WaitGroup, no
// SeededEgos and no direct ApplyMutations or RunFromArtifact call outside
// their allow-lists.
func TestDatasetMapsReadThroughAccessors(t *testing.T) {
	scanned := 0
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir // .git, .bench_build, …
			}
			return nil
		}
		path = filepath.ToSlash(path)
		if !strings.HasSuffix(path, ".go") || path == "docs_test.go" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		scanned++
	rules:
		for _, rule := range sourceRules {
			if !rule.testFiles && strings.HasSuffix(path, "_test.go") {
				continue
			}
			for prefix := range rule.allowed {
				if strings.HasPrefix(path, prefix) {
					continue rules
				}
			}
			for i, line := range strings.Split(string(data), "\n") {
				if rule.pattern.MatchString(line) {
					t.Errorf("%s:%d %s:\n\t%s", path, i+1, rule.message, strings.TrimSpace(line))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 50 {
		t.Fatalf("scanned only %d Go files; is the test running from the repository root?", scanned)
	}
}

// TestTempDirsRemoved holds test code to leaving nothing in the temp dir:
// a test file, or a file of a test-support package, that makes a directory
// with os.MkdirTemp must remove as many with os.RemoveAll, typically from
// a TestMain once m.Run has returned (t.TempDir needs neither).
func TestTempDirsRemoved(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return err
		}
		path = filepath.ToSlash(path)
		if !strings.HasSuffix(path, "_test.go") && !strings.HasPrefix(path, "internal/testutil/") || path == "docs_test.go" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if made, removed := bytes.Count(data, []byte("os.MkdirTemp(")), bytes.Count(data, []byte("os.RemoveAll(")); made > removed {
			t.Errorf("%s: %d os.MkdirTemp, %d os.RemoveAll: remove every directory a test process makes (a TestMain after m.Run), or use t.TempDir", path, made, removed)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// flagTables maps each OPERATIONS.md heading that holds a flag table to
// the binary whose flags it documents.
var flagTables = map[string]string{
	"## Starting the service":     "cmd/locec-serve",
	"### Router flags and tuning": "cmd/locec-router",
}

var (
	flagRow  = regexp.MustCompile("^\\| `-([a-z0-9-]+)`")
	flagDecl = regexp.MustCompile(`flag\.[A-Za-z0-9]+\("([^"]+)"`)
)

// TestFlagTablesMatchBinaries holds the OPERATIONS.md flag tables to the
// binaries: each table lists exactly the flags its command defines, so a
// flag cannot be added undocumented nor deleted while its row lives on.
func TestFlagTablesMatchBinaries(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string][]string{}
	heading, fenced := "", false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		}
		if strings.HasPrefix(line, "#") && !fenced {
			heading = line
		}
		if m := flagRow.FindStringSubmatch(line); m != nil {
			documented[heading] = append(documented[heading], m[1])
		}
	}
	for heading := range documented {
		if _, ok := flagTables[heading]; !ok {
			t.Errorf("OPERATIONS.md: flag table under %q, which flagTables does not map to a binary", heading)
		}
	}
	for heading, dir := range flagTables {
		srcs, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var defined []string
		for _, src := range srcs {
			if strings.HasSuffix(src, "_test.go") {
				continue
			}
			code, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range flagDecl.FindAllStringSubmatch(string(code), -1) {
				defined = append(defined, m[1])
			}
		}
		rows := documented[heading]
		slices.Sort(rows)
		slices.Sort(defined)
		if len(defined) == 0 || !slices.Equal(rows, defined) {
			t.Errorf("OPERATIONS.md %q lists flags %v; %s defines %v", heading, rows, dir, defined)
		}
	}
}
