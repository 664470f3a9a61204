package gbdt

import (
	"bytes"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	X, y := blobs3(200, 5)
	m, err := Train(X, y, Config{Classes: 3, Rounds: 10, MaxDepth: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range X[:40] {
		a, b := m.Margins(x), m2.Margins(x)
		for c := range a {
			if a[c] != b[c] {
				t.Fatal("loaded model diverges from original")
			}
		}
		la, lb := m.LeafValues(x), m2.LeafValues(x)
		for i := range la {
			if la[i] != lb[i] {
				t.Fatal("leaf values diverge")
			}
		}
	}
	if m2.features != m.features || m2.NumTrees() != m.NumTrees() {
		t.Fatal("model metadata lost")
	}
}

func TestLoadRejectsCorruptModels(t *testing.T) {
	cases := []string{
		`not json`,
		`{"config":{"Classes":1},"features":3,"trees":[]}`,
		`{"config":{"Classes":3},"features":0,"trees":[]}`,
		// Round with wrong tree count.
		`{"config":{"Classes":3,"Rounds":1},"features":2,"trees":[[{"Nodes":[{"Feature":-1}]}]]}`,
		// Backward-pointing child indices (would loop forever).
		`{"config":{"Classes":2,"Rounds":1},"features":2,
		  "trees":[[{"Nodes":[{"Feature":0,"Left":0,"Right":0}]},{"Nodes":[{"Feature":-1}]}]]}`,
		// Empty tree.
		`{"config":{"Classes":2,"Rounds":1},"features":2,
		  "trees":[[{"Nodes":[]},{"Nodes":[{"Feature":-1}]}]]}`,
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: corrupt model accepted", i)
		}
	}
}
