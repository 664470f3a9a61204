package social

import (
	"math"
	"strings"
	"testing"

	"locec/internal/graph"
)

func tinyDataset(t *testing.T) *Dataset {
	t.Helper()
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	labels := map[uint64]Label{
		(graph.Edge{U: 0, V: 1}).Key(): Family,
		(graph.Edge{U: 1, V: 2}).Key(): Colleague,
		(graph.Edge{U: 2, V: 3}).Key(): Other,
	}
	inter := map[uint64][]float64{}
	vec := make([]float64, NumInteractionDims)
	vec[DimMessage] = 3
	inter[(graph.Edge{U: 0, V: 1}).Key()] = vec
	return &Dataset{
		G:            g,
		UserFeatures: [][]float64{{1}, {2}, {3}, {4}},
		Interactions: inter,
		TrueLabels:   labels,
		Revealed:     map[uint64]bool{},
	}
}

func TestValidateOK(t *testing.T) {
	if err := tinyDataset(t).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadShapes(t *testing.T) {
	ds := tinyDataset(t)
	ds.UserFeatures = ds.UserFeatures[:2]
	if ds.Validate() == nil {
		t.Fatal("short features accepted")
	}
	ds = tinyDataset(t)
	ds.UserFeatures[2] = []float64{1, 2}
	if ds.Validate() == nil {
		t.Fatal("ragged features accepted")
	}
	ds = tinyDataset(t)
	ds.Interactions[(graph.Edge{U: 0, V: 3}).Key()] = make([]float64, NumInteractionDims)
	if ds.Validate() == nil {
		t.Fatal("interaction on non-edge accepted")
	}
	ds = tinyDataset(t)
	delete(ds.TrueLabels, (graph.Edge{U: 0, V: 1}).Key())
	if ds.Validate() == nil {
		t.Fatal("missing true label accepted")
	}
	ds = tinyDataset(t)
	ds.TrueLabels[(graph.Edge{U: 0, V: 1}).Key()] = Label(9)
	if ds.Validate() == nil {
		t.Fatal("invalid label accepted")
	}
}

// TestValidateRefusesNonFiniteValues: one rule for numeric input — user
// features finite, interaction counts finite and non-negative — and the
// error names the row and the column.
func TestValidateRefusesNonFiniteValues(t *testing.T) {
	e01 := (graph.Edge{U: 0, V: 1}).Key()
	for _, tc := range []struct {
		name string
		edit func(ds *Dataset)
		want string // "" = accepted
	}{
		{"negative feature", func(ds *Dataset) { ds.UserFeatures[2][0] = -3.5 }, ""},
		{"zero and -0 counts", func(ds *Dataset) { ds.Interactions[e01][4] = math.Copysign(0, -1) }, ""},
		{"NaN feature", func(ds *Dataset) { ds.UserFeatures[2][0] = math.NaN() }, "feature row 2: column 0 = NaN"},
		{"+Inf feature", func(ds *Dataset) { ds.UserFeatures[3][0] = math.Inf(1) }, "feature row 3: column 0 = +Inf"},
		{"-Inf feature", func(ds *Dataset) { ds.UserFeatures[0][0] = math.Inf(-1) }, "feature row 0: column 0 = -Inf"},
		{"NaN count", func(ds *Dataset) { ds.Interactions[e01][0] = math.NaN() }, "edge {0,1}: interaction dim 0 = NaN"},
		{"+Inf count", func(ds *Dataset) { ds.Interactions[e01][3] = math.Inf(1) }, "edge {0,1}: interaction dim 3 = +Inf"},
		{"-Inf count", func(ds *Dataset) { ds.Interactions[e01][7] = math.Inf(-1) }, "edge {0,1}: interaction dim 7 = -Inf"},
		{"negative count", func(ds *Dataset) { ds.Interactions[e01][5] = -1 }, "edge {0,1}: interaction dim 5 = -1"},
		{"tiny negative count", func(ds *Dataset) { ds.Interactions[e01][5] = -1e-300 }, "edge {0,1}: interaction dim 5 = -1e-300"},
	} {
		ds := tinyDataset(t)
		tc.edit(ds)
		err := ds.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestLabelStringsAndValidity(t *testing.T) {
	if Colleague.String() != "Colleague" || Family.String() != "Family Members" ||
		Schoolmate.String() != "Schoolmates" || Other.String() != "Others" ||
		Unlabeled.String() != "Unlabeled" {
		t.Fatal("label strings wrong")
	}
	if !Colleague.Valid() || Other.Valid() || Unlabeled.Valid() {
		t.Fatal("Valid() wrong")
	}
	if !Other.ValidGroundTruth() || Unlabeled.ValidGroundTruth() {
		t.Fatal("ValidGroundTruth() wrong")
	}
	if Label(9).String() == "" {
		t.Fatal("unknown label should still render")
	}
}

func TestInteractionLookups(t *testing.T) {
	ds := tinyDataset(t)
	if got := ds.Interaction(0, 1, DimMessage); got != 3 {
		t.Fatalf("Interaction = %v", got)
	}
	if got := ds.Interaction(1, 0, DimMessage); got != 3 {
		t.Fatalf("reversed Interaction = %v", got)
	}
	if got := ds.Interaction(1, 2, DimMessage); got != 0 {
		t.Fatalf("missing pair Interaction = %v", got)
	}
	iv := ds.InteractionVector(2, 3)
	for _, v := range iv {
		if v != 0 {
			t.Fatal("zero vector expected")
		}
	}
}

func TestLabeledEdgeFiltering(t *testing.T) {
	ds := tinyDataset(t)
	ds.Revealed[(graph.Edge{U: 0, V: 1}).Key()] = true
	ds.Revealed[(graph.Edge{U: 2, V: 3}).Key()] = true // Other class
	got := ds.LabeledEdges()
	if len(got) != 1 || got[0] != (graph.Edge{U: 0, V: 1}).Key() {
		t.Fatalf("LabeledEdges = %v", got)
	}
	all := ds.LabeledEdgesAll()
	if len(all) != 2 {
		t.Fatalf("LabeledEdgesAll = %v", all)
	}
	if ds.RevealedLabel((graph.Edge{U: 0, V: 1}).Key()) != Family {
		t.Fatal("RevealedLabel wrong")
	}
	if ds.RevealedLabel((graph.Edge{U: 1, V: 2}).Key()) != Unlabeled {
		t.Fatal("hidden label leaked")
	}
}

func TestEdgeFeatureSymmetry(t *testing.T) {
	ds := tinyDataset(t)
	a := ds.EdgeFeature(0, 1)
	b := ds.EdgeFeature(1, 0)
	if len(a) != len(b) {
		t.Fatal("widths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("EdgeFeature not canonical")
		}
	}
	want := 1 + 1 + int(NumInteractionDims)
	if len(a) != want {
		t.Fatalf("width = %d, want %d", len(a), want)
	}
}
