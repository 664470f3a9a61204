package artifact_test

import (
	"bytes"
	"math/rand"
	"testing"

	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/social"
)

// The tests in this file pin history independence in bytes: what a WAL
// checkpoint Saves depends only on the dataset the snapshot ends on, not
// on the epochs that led there. WAL replay, ApplyBurst's one-by-one
// fallback and every checkpoint rely on it; core.VerifyIncremental checks
// the Result, these check the edit delta and its folds, the edge store's
// chunk table and the overlay's shared blocks as far as Save can see them.

// restoredState trains 80 nodes under det, Saves the run as a mutable
// checkpoint and restores it the way a server boots from one.
func restoredState(t *testing.T, det core.DetectorKind) (*core.Pipeline, *social.Dataset, *core.Result, []byte) {
	t.Helper()
	_, ds, res := trainedOn(t, 80, xgbUnder(det))
	data, err := saveMutable(ds, res)
	if err != nil {
		t.Fatal(err)
	}
	art, err := artifact.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	ds, res, p, err := art.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("restored checkpoint is not mutable")
	}
	restored, err := saveMutable(ds, res)
	if err != nil {
		t.Fatal(err)
	}
	return p, ds, res, restored
}

// edgeState is the add that restores edge {u,v} of ds as it is.
func edgeState(ds *social.Dataset, u, v graph.NodeID) core.Mutation {
	k := (graph.Edge{U: u, V: v}).Key()
	row, _ := ds.InteractionRow(k)
	return core.Mutation{Kind: core.MutAdd, U: u, V: v, Label: ds.TrueLabel(k), Revealed: ds.IsRevealed(k), Interactions: row}
}

// absentPair draws random pairs until one is not an edge of g.
func absentPair(g *graph.Graph, rng *rand.Rand) (graph.NodeID, graph.NodeID) {
	for {
		u, v := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
		if u != v && !g.HasEdge(u, v) {
			return u, v
		}
	}
}

// TestUndoSavesRestoredBytes: under clauset and label propagation, each of
// the four undo shapes — add then remove, remove then re-add, relabel and
// back, and an add with its remove in one batch — leaves a restored
// checkpoint's state Saving the restore's own bytes.
func TestUndoSavesRestoredBytes(t *testing.T) {
	for _, det := range []core.DetectorKind{core.DetectorClauset, core.DetectorLabelProp} {
		t.Run(det.String(), func(t *testing.T) {
			p, ds, res, restored := restoredState(t, det)
			rng := rand.New(rand.NewSource(3))
			u, v := absentPair(ds.G, rng)
			row := make([]float64, social.NumInteractionDims)
			row[1] = 4
			add := core.Mutation{Kind: core.MutAdd, U: u, V: v, Label: social.Colleague, Revealed: true, Interactions: row}
			remove := core.Mutation{Kind: core.MutRemove, U: u, V: v}

			edges := ds.G.Edges()
			e := edges[rng.Intn(len(edges))]
			old := edgeState(ds, e.U, e.V)
			relabel := core.Mutation{Kind: core.MutRelabel, U: e.U, V: e.V, Label: (old.Label + 1) % social.NumLabels, Revealed: !old.Revealed}
			back := core.Mutation{Kind: core.MutRelabel, U: e.U, V: e.V, Label: old.Label, Revealed: old.Revealed}

			for _, shape := range []struct {
				name    string
				batches [][]core.Mutation
			}{
				{"add then remove", [][]core.Mutation{{add}, {remove}}},
				{"remove then re-add", [][]core.Mutation{{{Kind: core.MutRemove, U: e.U, V: e.V}}, {old}}},
				{"relabel and back", [][]core.Mutation{{relabel}, {back}}},
				{"add and remove in one batch", [][]core.Mutation{{add, remove}}},
			} {
				ds, res := ds, res
				for _, batch := range shape.batches {
					var err error
					if ds, res, _, err = p.ApplyMutations(ds, res, batch); err != nil {
						t.Fatalf("%s: %v", shape.name, err)
					}
				}
				got, err := saveMutable(ds, res)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, restored) {
					t.Errorf("%s: Saves %d bytes that differ from the restore's %d", shape.name, len(got), len(restored))
				}
			}
		})
	}
}

// TestChainSavesFrozenBytes: at n = 500 under clauset, a chain of
// single-mutation epochs that crosses a fold of the dataset's edit delta,
// and goes on until the delta holds edits again, Saves the same bytes as
// RunFrozen's from-scratch result on the dataset the chain ends on. The
// meta's phase_ns is the training run's, which every epoch carries over
// and RunFrozen, which trains nothing, leaves zero; so the frozen result
// is given the chain's Times.
func TestChainSavesFrozenBytes(t *testing.T) {
	p, ds, res := trainedOn(t, 500, xgbUnder(core.DetectorClauset))
	rng := rand.New(rand.NewSource(9))
	epochs, folds := 0, 0
	for ; folds == 0 || ds.NumEdits() == 0; epochs++ {
		if epochs == 2000 {
			t.Fatalf("%d epochs never folded the edit delta", epochs)
		}
		var m core.Mutation
		switch edges := ds.G.Edges(); rng.Intn(3) {
		case 0:
			u, v := absentPair(ds.G, rng)
			m = core.Mutation{Kind: core.MutAdd, U: u, V: v, Label: social.Label(rng.Intn(4)), Revealed: rng.Intn(2) == 0}
		case 1:
			e := edges[rng.Intn(len(edges))]
			m = core.Mutation{Kind: core.MutRemove, U: e.U, V: e.V}
		default:
			e := edges[rng.Intn(len(edges))]
			m = core.Mutation{Kind: core.MutRelabel, U: e.U, V: e.V, Label: social.Label(rng.Intn(4)), Revealed: rng.Intn(2) == 0}
		}
		nds, nres, stats, err := p.ApplyMutations(ds, res, []core.Mutation{m})
		if err != nil {
			t.Fatalf("epoch %d: %v", epochs, err)
		}
		ds, res = nds, nres
		if stats.Folded {
			folds++
		}
	}
	frozen, err := p.RunFrozen(ds, res)
	if err != nil {
		t.Fatal(err)
	}
	frozen.Times = res.Times
	got, err := saveMutable(ds, res)
	if err != nil {
		t.Fatal(err)
	}
	want, err := saveMutable(ds, frozen)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("after %d epochs (%d folds): the chain Saves %d bytes that differ from RunFrozen's %d", epochs, folds, len(got), len(want))
	}
}
