package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestShardArtifact pins the -shard file rule: the cut beside the given
// path wins when it exists, else the given path is served as named.
func TestShardArtifact(t *testing.T) {
	for _, c := range []struct {
		name  string
		files []string // created in a fresh directory
		path  string
		want  string
	}{
		{"base and cut", []string{"m.locec", "m-1-of-4.locec"}, "m.locec", "m-1-of-4.locec"},
		{"cut only", []string{"m-1-of-4.locec"}, "m.locec", "m-1-of-4.locec"},
		{"base only", []string{"m.locec"}, "m.locec", "m.locec"},
		{"another shard's cut", []string{"m.locec", "m-2-of-4.locec"}, "m.locec", "m.locec"},
		{"shard file named directly", []string{"m-1-of-4.locec"}, "m-1-of-4.locec", "m-1-of-4.locec"},
		{"nothing", nil, "m.locec", "m.locec"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, f := range c.files {
				if err := os.WriteFile(filepath.Join(dir, f), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if got := shardArtifact(filepath.Join(dir, c.path), 1, 4); got != filepath.Join(dir, c.want) {
				t.Fatalf("shardArtifact(%s, 1, 4) = %s, want %s", c.path, filepath.Base(got), c.want)
			}
		})
	}
}
