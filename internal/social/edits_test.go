package social

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"locec/internal/graph"
)

// mapOracle is the representation the edit delta replaced: three plain
// maps, cloned whole and edited per epoch.
type mapOracle struct {
	inter    map[uint64][]float64
	labels   map[uint64]Label
	revealed map[uint64]bool
}

func (o mapOracle) clone() mapOracle {
	return mapOracle{maps.Clone(o.inter), maps.Clone(o.labels), maps.Clone(o.revealed)}
}

func (o mapOracle) set(k uint64, l Label, revealed bool, inter []float64) {
	o.labels[k] = l
	delete(o.revealed, k)
	if revealed {
		o.revealed[k] = true
	}
	delete(o.inter, k)
	if len(inter) > 0 {
		o.inter[k] = inter
	}
}

func (o mapOracle) remove(k uint64) {
	delete(o.labels, k)
	delete(o.revealed, k)
	delete(o.inter, k)
}

// dataset wraps the oracle's maps in a delta-free Dataset over g.
func (o mapOracle) dataset(g *graph.Graph, feats [][]float64) *Dataset {
	return &Dataset{G: g, UserFeatures: feats, Interactions: o.inter, TrueLabels: o.labels, Revealed: o.revealed}
}

// assertSameView compares every read path of got (which may carry a
// delta) with want (plain maps), over all n·(n-1)/2 possible keys.
func assertSameView(t *testing.T, step int, got, want *Dataset) {
	t.Helper()
	n := got.G.NumNodes()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			a, b := graph.NodeID(u), graph.NodeID(v)
			k := (graph.Edge{U: a, V: b}).Key()
			gl, gok := got.LookupTrueLabel(k)
			wl, wok := want.TrueLabels[k]
			if gok != wok || (gok && gl != wl) || got.TrueLabel(k) != wl {
				t.Fatalf("step %d: label of {%d,%d} = %v,%v, want %v,%v", step, u, v, gl, gok, wl, wok)
			}
			if got.IsRevealed(k) != want.Revealed[k] || got.RevealedLabel(k) != want.RevealedLabel(k) {
				t.Fatalf("step %d: revealed state of {%d,%d} differs", step, u, v)
			}
			gr, gok := got.InteractionRow(k)
			wr, wok := want.Interactions[k]
			if gok != wok || !slices.Equal(gr, wr) || !slices.Equal(got.InteractionVector(b, a), want.InteractionVector(a, b)) {
				t.Fatalf("step %d: interaction row of {%d,%d} = %v,%v, want %v,%v", step, u, v, gr, gok, wr, wok)
			}
			if got.Interaction(a, b, DimRepost) != want.Interaction(a, b, DimRepost) {
				t.Fatalf("step %d: Interaction of {%d,%d} differs", step, u, v)
			}
		}
	}
	if !slices.Equal(got.LabeledEdges(), want.LabeledEdges()) ||
		!slices.Equal(got.LabeledEdgesAll(), want.LabeledEdgesAll()) {
		t.Fatalf("step %d: labeled edge lists differ", step)
	}
	if !maps.Equal(maps.Collect(got.AllTrueLabels()), want.TrueLabels) {
		t.Fatalf("step %d: AllTrueLabels differs from the label map", step)
	}
	if !maps.EqualFunc(maps.Collect(got.AllInteractions()), want.Interactions, slices.Equal[[]float64]) {
		t.Fatalf("step %d: AllInteractions differs from the interaction map", step)
	}
	rev := map[uint64]bool{}
	for k := range got.AllRevealed() {
		rev[k] = true
	}
	if !maps.Equal(rev, want.Revealed) {
		t.Fatalf("step %d: AllRevealed differs from the revealed map", step)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("step %d: delta view invalid: %v", step, err)
	}
	if err := want.Validate(); err != nil {
		t.Fatalf("step %d: oracle invalid (test bug): %v", step, err)
	}
}

// TestEditDeltaMatchesMapOracle drives random add/remove/relabel epochs
// (re-adds after removes, relabels after adds, rows present and absent)
// through the Editor and through cloned plain maps, and compares every
// accessor after every epoch, across several folds.
func TestEditDeltaMatchesMapOracle(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(7))
	feats := make([][]float64, n)
	for i := range feats {
		feats[i] = []float64{float64(i)}
	}
	b := graph.NewBuilder(n)
	for b.NumEdges() < 20 {
		if u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)); u != v {
			_ = b.AddEdge(u, v)
		}
	}
	g := b.Build()
	oracle := mapOracle{map[uint64][]float64{}, map[uint64]Label{}, map[uint64]bool{}}
	g.ForEachEdge(func(u, v graph.NodeID) {
		oracle.set((graph.Edge{U: u, V: v}).Key(), Label(rng.Intn(4)), rng.Intn(2) == 0, randomRow(rng))
	})
	ds := oracle.clone().dataset(g, feats)
	assertSameView(t, -1, ds, oracle.dataset(g, feats))

	folds, unfolded := 0, 0
	for step := 0; step < 300; step++ {
		parent, parentView := ds, oracle.clone()
		ov := graph.NewOverlay(ds.G)
		ed := ds.Edit()
		oracle = oracle.clone()
		for ops := 1 + rng.Intn(3); ops > 0; ops-- {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			k := (graph.Edge{U: u, V: v}).Key()
			switch {
			case !ov.HasEdge(u, v):
				l, r, row := Label(rng.Intn(4)), rng.Intn(2) == 0, randomRow(rng)
				if err := ov.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
				ed.Set(k, l, r, row)
				oracle.set(k, l, r, row)
			case rng.Intn(2) == 0:
				if err := ov.RemoveEdge(u, v); err != nil {
					t.Fatal(err)
				}
				ed.Delete(k)
				oracle.remove(k)
			default:
				l, r := Label(rng.Intn(4)), rng.Intn(2) == 0
				ed.Relabel(k, l, r)
				oracle.set(k, l, r, oracle.inter[k])
			}
		}
		var folded bool
		ds, folded = ed.Commit(ov.Compact())
		if folded {
			folds++
			if ds.NumEdits() != 0 {
				t.Fatalf("step %d: folded dataset still carries %d edits", step, ds.NumEdits())
			}
		} else if ds.NumEdits() > 0 {
			unfolded++
		}
		if e := ds.NumEdits(); e*e > ds.G.NumEdges() {
			t.Fatalf("step %d: %d edits over %d edges escaped the fold rule", step, e, ds.G.NumEdges())
		}
		assertSameView(t, step, ds, oracle.dataset(ds.G, feats))
		// Copy-on-write: the parent still reads as it did before the epoch.
		assertSameView(t, step, parent, parentView.dataset(parent.G, feats))
	}
	if folds < 2 || unfolded < 2 {
		t.Fatalf("schedule crossed %d folds and %d delta-carrying epochs; the test needs several of each", folds, unfolded)
	}
}

func randomRow(rng *rand.Rand) []float64 {
	if rng.Intn(2) == 0 {
		return nil
	}
	row := make([]float64, NumInteractionDims)
	for d := range row {
		row[d] = float64(rng.Intn(9))
	}
	return row
}

// TestSetRevealed covers the in-place hold-out step on both shapes of
// dataset: plain maps, and one that carries a delta (where the shared base
// maps must stay untouched).
func TestSetRevealed(t *testing.T) {
	ds := tinyDataset(t)
	k01, k12 := (graph.Edge{U: 0, V: 1}).Key(), (graph.Edge{U: 1, V: 2}).Key()
	ds.SetRevealed(k01, true)
	if !ds.IsRevealed(k01) || !ds.Revealed[k01] {
		t.Fatal("reveal on a plain dataset not written to the map")
	}
	ds.SetRevealed(k01, false)
	if ds.IsRevealed(k01) || len(ds.Revealed) != 0 {
		t.Fatal("hide on a plain dataset left an entry")
	}

	ds.SetRevealed(k01, true)
	ed := ds.Edit()
	ed.Relabel(k12, Schoolmate, false)
	child, _ := ed.Commit(ds.G)
	if child.NumEdits() == 0 {
		t.Fatal("test needs a delta-carrying dataset; the fold rule folded it")
	}
	child.SetRevealed(k01, false)
	child.SetRevealed(k12, true)
	child.SetRevealed((graph.Edge{U: 0, V: 3}).Key(), true) // not an edge: ignored
	if child.IsRevealed(k01) || child.RevealedLabel(k12) != Schoolmate {
		t.Fatal("SetRevealed on a delta-carrying dataset not visible through the accessors")
	}
	if row, ok := child.InteractionRow(k01); !ok || row[DimMessage] != 3 {
		t.Fatal("SetRevealed dropped the edge's interaction row")
	}
	if !ds.IsRevealed(k01) || ds.IsRevealed(k12) {
		t.Fatal("SetRevealed on the child leaked into its parent's shared maps")
	}
	if err := child.Validate(); err != nil {
		t.Fatal(err)
	}
}
