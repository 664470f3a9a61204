package artifact

import (
	"bytes"
	"maps"
	"math/rand"
	"testing"

	"locec/internal/graph"
	"locec/internal/social"
)

// TestEncodeDatasetFoldsDelta: the dataset section of a dataset that
// carries an edit delta is byte-identical to the section of the same
// content held in plain maps — after every epoch of a random
// add/remove/relabel schedule. Checkpoint bytes therefore do not depend on
// which edits a snapshot holds in its delta rather than its maps.
func TestEncodeDatasetFoldsDelta(t *testing.T) {
	const n = 14
	rng := rand.New(rand.NewSource(5))
	feats := make([][]float64, n)
	for i := range feats {
		feats[i] = []float64{float64(i), 1}
	}
	b := graph.NewBuilder(n)
	for b.NumEdges() < 30 {
		if u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)); u != v {
			_ = b.AddEdge(u, v)
		}
	}
	row := func() []float64 {
		if rng.Intn(2) == 0 {
			return nil
		}
		r := make([]float64, social.NumInteractionDims)
		r[rng.Intn(len(r))] = float64(1 + rng.Intn(9))
		return r
	}
	// The oracle: plain maps, cloned and edited per epoch.
	inter, labels, revealed := map[uint64][]float64{}, map[uint64]social.Label{}, map[uint64]bool{}
	set := func(k uint64, l social.Label, r bool, iv []float64) {
		labels[k] = l
		delete(revealed, k)
		if r {
			revealed[k] = true
		}
		delete(inter, k)
		if iv != nil {
			inter[k] = iv
		}
	}
	g := b.Build()
	g.ForEachEdge(func(u, v graph.NodeID) {
		set((graph.Edge{U: u, V: v}).Key(), social.Label(rng.Intn(4)), rng.Intn(2) == 0, row())
	})
	ds := &social.Dataset{G: g, UserFeatures: feats, Interactions: maps.Clone(inter), TrueLabels: maps.Clone(labels), Revealed: maps.Clone(revealed)}

	for step := 0; step < 200; step++ {
		ov, ed := graph.NewOverlay(ds.G), ds.Edit()
		inter, labels, revealed = maps.Clone(inter), maps.Clone(labels), maps.Clone(revealed)
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		k := (graph.Edge{U: u, V: v}).Key()
		switch {
		case !ov.HasEdge(u, v):
			l, r, iv := social.Label(rng.Intn(4)), rng.Intn(2) == 0, row()
			_ = ov.AddEdge(u, v)
			ed.Set(k, l, r, iv)
			set(k, l, r, iv)
		case rng.Intn(2) == 0:
			_ = ov.RemoveEdge(u, v)
			ed.Delete(k)
			delete(labels, k)
			delete(revealed, k)
			delete(inter, k)
		default:
			l, r := social.Label(rng.Intn(4)), rng.Intn(2) == 0
			ed.Relabel(k, l, r)
			set(k, l, r, inter[k])
		}
		ds = ed.Commit(ov.Compact())
		plain := &social.Dataset{G: ds.G, UserFeatures: feats, Interactions: inter, TrueLabels: labels, Revealed: revealed}
		got, _ := encoded(datasetSection(ds))
		if want, _ := encoded(datasetSection(plain)); !bytes.Equal(got, want) {
			t.Fatalf("step %d (%d edits): dataset section differs from its plain-map form (%d vs %d bytes)",
				step, ds.NumEdits(), len(got), len(want))
		}
	}
	section, _ := encoded(datasetSection(ds))
	back, err := decodeDataset(section, len(ds.UserFeatures))
	if err != nil {
		t.Fatal(err)
	}
	back.G = ds.G
	if err := back.Validate(); err != nil {
		t.Fatalf("decoded delta-carrying dataset invalid: %v", err)
	}
}
