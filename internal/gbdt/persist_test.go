package gbdt

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// saved is m's Save output.
func saved(t testing.TB, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameForest reports whether two models hold the same configuration and
// forest, array for array.
func sameForest(a, b *Model) bool {
	fa, fb := a.forest, b.forest
	return a.cfg == b.cfg && a.features == b.features &&
		slices.Equal(fa.Roots, fb.Roots) && slices.Equal(fa.Feature, fb.Feature) &&
		slices.Equal(fa.Child, fb.Child) && slices.Equal(fa.Threshold, fb.Threshold) &&
		slices.Equal(fa.Value, fb.Value)
}

// TestSaveLoadRoundTrip: a model loads back to the same forest arrays and
// the same predictions, and saves again to the same bytes.
func TestSaveLoadRoundTrip(t *testing.T) {
	X, y := blobs3(200, 5)
	m, err := Train(X, y, Config{Classes: 3, Rounds: 10, MaxDepth: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	b := saved(t, m)
	m2, err := Load(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !sameForest(m, m2) {
		t.Fatal("loaded forest differs from the saved one")
	}
	for _, x := range X {
		if !slices.Equal(m.PredictProba(x), m2.PredictProba(x)) {
			t.Fatal("loaded model predicts differently")
		}
	}
	if !bytes.Equal(saved(t, m2), b) {
		t.Fatal("Save(Load(b)) != b")
	}
}

// TestLoadJSONModel: a model saved as JSON, before the forest layout (the
// parent format's Save of this fixture), loads to the forest Train builds
// and saves in the forest layout.
func TestLoadJSONModel(t *testing.T) {
	js, err := os.ReadFile(filepath.Join("testdata", "model-json.json"))
	if err != nil {
		t.Fatal(err)
	}
	X, y := blobs3(200, 5)
	want, err := Train(X, y, Config{Classes: 3, Rounds: 4, MaxDepth: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if !sameForest(got, want) {
		t.Fatal("the JSON model loads to another forest than Train builds")
	}
	if b := saved(t, got); b[0] == '{' || !bytes.Equal(b, saved(t, want)) {
		t.Fatal("a JSON model does not save as the forest layout")
	}
}

// forestOffsets are the byte offsets, in a saved model of trees trees and
// nodes nodes, of its Roots, Feature and Child runs.
func forestOffsets(trees, nodes int) (roots, feature, child int) {
	roots = headerBytes
	feature = roots + 4*trees
	return roots, feature, feature + 4*nodes
}

// corruptForests are saved models that Load must refuse, by name.
func corruptForests(t testing.TB) map[string][]byte {
	X, y := blobs3(60, 3)
	m, err := Train(X, y, Config{Classes: 3, Rounds: 2, MaxDepth: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	good := saved(t, m)
	trees, nodes := len(m.forest.Roots), len(m.forest.Feature)
	roots, feature, child := forestOffsets(trees, nodes)
	split := slices.IndexFunc(m.forest.Feature, func(f int32) bool { return f >= 0 })
	if split < 0 {
		t.Fatal("fixture forest has no split node")
	}
	patched := func(off int, v uint32) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	return map[string][]byte{
		"backward child":  patched(child+4*split, uint32(split)),
		"child past tree": patched(child+4*split, uint32(m.forest.Roots[1])-1),
		"feature range":   patched(feature+4*split, 3),
		"second root 0":   patched(roots+4, 0),
		"first root 1":    patched(roots, 1),
		"rounds":          patched(len(magic), 3),
		"node count":      patched(headerBytes-4, uint32(nodes+1)),
		"tree count":      patched(headerBytes-8, 1<<31),
		"truncated tail":  good[:len(good)-1],
		"trailing byte":   append(bytes.Clone(good), 0),
		"magic":           patched(0, 0),
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
	for name, b := range corruptForests(t) {
		if _, err := Load(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: corrupt forest accepted", name)
		}
	}
}
