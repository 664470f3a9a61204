package locec_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links/images: [text](target).
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// docFiles returns every markdown file the link checker covers: the
// repo-root documents and everything under docs/.
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
	return append(files, sub...)
}

// TestDocLinks fails on dead relative links in the markdown docs — the
// drift this repo has actually suffered (renamed docs, moved anchors).
// External URLs are out of scope: availability of the network is not a
// property of this repository.
func TestDocLinks(t *testing.T) {
	checked := 0
	for _, file := range docFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
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

// TestDatasetMapsReadThroughAccessors scans every Go file of the repository
// for a direct index of Dataset.TrueLabels / Revealed / Interactions outside
// the allow-list above.
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
		for prefix := range directMapIndexAllowed {
			if strings.HasPrefix(path, prefix) {
				return nil
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		scanned++
		for i, line := range strings.Split(string(data), "\n") {
			if datasetMapIndex.MatchString(line) {
				t.Errorf("%s:%d indexes a dataset map directly; use the social.Dataset accessors (or add the file to directMapIndexAllowed with a reason):\n\t%s",
					path, i+1, strings.TrimSpace(line))
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
