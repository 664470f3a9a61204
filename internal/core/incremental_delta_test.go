package core

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"locec/internal/graph"
	"locec/internal/social"
)

// These tests pin the dataset edit delta as ApplyMutations drives it: a
// mutated dataset shares its parent's per-edge maps and shadows them, so
// every one of them compares the accessor view with mapOracle — the three
// plain maps the engine used to clone per epoch, edited the way it used to
// edit them.

type mapOracle struct {
	inter    map[uint64][]float64
	labels   map[uint64]social.Label
	revealed map[uint64]bool
}

// oracleOf snapshots a dataset's view into plain maps.
func oracleOf(ds *social.Dataset) mapOracle {
	o := mapOracle{maps.Collect(ds.AllInteractions()), maps.Collect(ds.AllTrueLabels()), map[uint64]bool{}}
	for k := range ds.AllRevealed() {
		o.revealed[k] = true
	}
	return o
}

// apply edits the maps the way the clone-per-epoch ApplyMutations did.
func (o mapOracle) apply(batch []Mutation) {
	for _, m := range batch {
		k := (graph.Edge{U: m.U, V: m.V}).Key()
		switch m.Kind {
		case MutAdd:
			o.labels[k] = m.Label
			delete(o.revealed, k)
			if m.Revealed {
				o.revealed[k] = true
			}
			delete(o.inter, k)
			if len(m.Interactions) > 0 {
				o.inter[k] = slices.Clone(m.Interactions)
			}
		case MutRemove:
			delete(o.labels, k)
			delete(o.revealed, k)
			delete(o.inter, k)
		case MutRelabel:
			o.labels[k] = m.Label
			delete(o.revealed, k)
			if m.Revealed {
				o.revealed[k] = true
			}
		}
	}
}

// assertViewMatches compares every accessor of ds with the oracle, over
// the oracle's keys and every edge of the graph.
func assertViewMatches(t testing.TB, what string, ds *social.Dataset, o mapOracle) {
	t.Helper()
	if !maps.Equal(maps.Collect(ds.AllTrueLabels()), o.labels) {
		t.Fatalf("%s: AllTrueLabels differs from the map oracle", what)
	}
	if !maps.EqualFunc(maps.Collect(ds.AllInteractions()), o.inter, slices.Equal[[]float64]) {
		t.Fatalf("%s: AllInteractions differs from the map oracle", what)
	}
	revealed := 0
	for k := range ds.AllRevealed() {
		revealed++
		if !o.revealed[k] {
			t.Fatalf("%s: AllRevealed yields %v, hidden in the map oracle", what, graph.EdgeFromKey(k))
		}
	}
	if revealed != len(o.revealed) {
		t.Fatalf("%s: %d revealed keys, map oracle has %d", what, revealed, len(o.revealed))
	}
	ds.G.ForEachEdge(func(u, v graph.NodeID) {
		k := (graph.Edge{U: u, V: v}).Key()
		l, ok := ds.LookupTrueLabel(k)
		if wl, wok := o.labels[k]; l != wl || ok != wok || ds.TrueLabel(k) != wl {
			t.Fatalf("%s: label of {%d,%d} = %v,%v, map oracle %v,%v", what, u, v, l, ok, wl, wok)
		}
		if ds.IsRevealed(k) != o.revealed[k] {
			t.Fatalf("%s: revealed flag of {%d,%d} differs from the map oracle", what, u, v)
		}
		row, ok := ds.InteractionRow(k)
		if wrow, wok := o.inter[k]; ok != wok || !slices.Equal(row, wrow) {
			t.Fatalf("%s: interaction row of {%d,%d} differs from the map oracle", what, u, v)
		}
	})
	if len(o.labels) != ds.G.NumEdges() {
		t.Fatalf("%s: %d labels for %d edges", what, len(o.labels), ds.G.NumEdges())
	}
	if err := ds.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestIncrementalOracleAlongChain chains 2·√E + 8 one-mutation epochs,
// each on the dataset and delta the last one left, and checks every epoch
// against the frozen from-scratch rerun and the map oracle. One
// seed-grown and one global detector; both read labels through the delta
// (truth votes) on every dirty ego.
func TestIncrementalOracleAlongChain(t *testing.T) {
	for _, d := range []DetectorKind{DetectorClauset, DetectorLabelProp} {
		t.Run(d.String(), func(t *testing.T) {
			p, ds, res := incrementalFixture(t, localConfig(d))
			oracle := oracleOf(ds)
			rng := rand.New(rand.NewSource(17))
			epochs := 2*int(math.Sqrt(float64(ds.G.NumEdges()))) + 8
			maxEdits := 0
			for epoch := 0; epoch < epochs; epoch++ {
				batch := randomBatch(rng, ds.G, 1)
				if err := VerifyIncremental(p, ds, res, batch); err != nil {
					t.Fatalf("epoch %d (%d edits): %v", epoch, ds.NumEdits(), err)
				}
				nds, nres, stats, err := p.ApplyMutations(ds, res, batch)
				if err != nil {
					t.Fatalf("epoch %d: %v", epoch, err)
				}
				if stats.DatasetEdits != nds.NumEdits() {
					t.Fatalf("epoch %d: stats report %d edits; dataset carries %d", epoch, stats.DatasetEdits, nds.NumEdits())
				}
				maxEdits = max(maxEdits, stats.DatasetEdits)
				ds, res = nds, nres
				oracle.apply(batch)
				assertViewMatches(t, "after epoch", ds, oracle)
			}
			if maxEdits < epochs/2 {
				t.Fatalf("%d epochs left a delta of at most %d keys", epochs, maxEdits)
			}
		})
	}
}

// TestApplyMutationsTransactionalWithDelta: a batch whose last mutation is
// invalid returns an error and leaves a delta-carrying input exactly as it
// was — maps, delta and result.
func TestApplyMutationsTransactionalWithDelta(t *testing.T) {
	p, ds, res := incrementalFixture(t, xgbConfig())
	rng := rand.New(rand.NewSource(3))
	for ds.NumEdits() < 3 {
		var err error
		if ds, res, _, err = p.ApplyMutations(ds, res, randomBatch(rng, ds.G, 1)); err != nil {
			t.Fatal(err)
		}
	}
	before, edits := oracleOf(ds), ds.NumEdits()
	g, edges := ds.G, res.Edges
	baseLabels := maps.Clone(ds.TrueLabels)

	e := ds.G.Edges()[0]
	hostile := make([]float64, social.NumInteractionDims)
	hostile[2] = math.Inf(1)
	for name, last := range map[string]Mutation{
		"self-loop add":     {Kind: MutAdd, U: e.U, V: e.U, Label: social.Family},
		"hostile row":       {Kind: MutAdd, U: e.U, V: e.V, Label: social.Family, Interactions: hostile},
		"unknown kind":      {Kind: MutationKind(9), U: e.U, V: e.V},
		"relabel bad label": {Kind: MutRelabel, U: e.U, V: e.V, Label: social.Unlabeled},
	} {
		batch := append(randomBatch(rng, ds.G, 5), last)
		if nds, nres, _, err := p.ApplyMutations(ds, res, batch); err == nil || nds != nil || nres != nil {
			t.Fatalf("%s: batch accepted (err=%v)", name, err)
		}
		if ds.NumEdits() != edits || ds.G != g || res.Edges != edges {
			t.Fatalf("%s: failed batch changed the inputs (%d edits, was %d)", name, ds.NumEdits(), edits)
		}
		assertViewMatches(t, name, ds, before)
		if !maps.Equal(ds.TrueLabels, baseLabels) {
			t.Fatalf("%s: failed batch wrote into the shared label map", name)
		}
	}
}

// TestApplyMutationsRejectsHostileInteractions: NaN, ±Inf and negative
// counts are refused by name, whatever their position in the row.
func TestApplyMutationsRejectsHostileInteractions(t *testing.T) {
	p, ds, res := incrementalFixture(t, xgbConfig())
	var u, v graph.NodeID
	for v = 1; ds.G.HasEdge(u, v); v++ {
	}
	for _, tc := range []struct {
		dim  int
		x    float64
		want string
	}{
		{0, math.NaN(), "interaction dim 0 = NaN"},
		{3, math.Inf(1), "interaction dim 3 = +Inf"},
		{7, math.Inf(-1), "interaction dim 7 = -Inf"},
		{5, -1, "interaction dim 5 = -1"},
		{5, -1e-300, "interaction dim 5 = -1e-300"},
	} {
		row := make([]float64, social.NumInteractionDims)
		row[tc.dim] = tc.x
		e := ds.G.Edges()[0]
		batch := []Mutation{
			{Kind: MutRelabel, U: e.U, V: e.V, Label: social.Family},
			{Kind: MutAdd, U: u, V: v, Label: social.Family, Interactions: row},
		}
		_, _, _, err := p.ApplyMutations(ds, res, batch)
		if err == nil || !strings.Contains(err.Error(), "mutation 1: add {0,") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("dim %d = %v: err = %v, want it to name mutation 1 and contain %q", tc.dim, tc.x, err, tc.want)
		}
	}
	// Zero and ordinary counts still pass, and an empty row means "never
	// interacted".
	ok := make([]float64, social.NumInteractionDims)
	ok[1] = 12
	for _, row := range [][]float64{nil, {}, ok} {
		if _, _, _, err := p.ApplyMutations(ds, res, []Mutation{{Kind: MutAdd, U: u, V: v, Label: social.Family, Interactions: row}}); err != nil {
			t.Errorf("row %v refused: %v", row, err)
		}
	}
}
