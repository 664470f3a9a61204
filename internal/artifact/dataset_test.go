package artifact_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/social"
)

// savedMutable serializes a trained run WITH the embedded dataset — the
// shape every WAL checkpoint has.
func savedMutable(t testing.TB) []byte {
	t.Helper()
	ds, res := trainedRun(t, "xgb")
	res.Times = core.PhaseTimes{} // wall-clock noise; zero for determinism
	ex, err := res.Export()
	if err != nil {
		t.Fatal(err)
	}
	art, err := artifact.New(ds.G, ex, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := art.EmbedDataset(ds); err != nil {
		t.Fatal(err)
	}
	art.StampWAL(5, 17)
	var buf bytes.Buffer
	if err := art.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDatasetRoundTrip(t *testing.T) {
	ds, _ := trainedRun(t, "xgb")
	data := savedMutable(t)

	art, err := artifact.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !art.HasDataset() {
		t.Fatal("dataset section lost on round trip")
	}
	meta := art.Meta()
	if meta.Epoch != 5 || meta.WALSeq != 17 {
		t.Fatalf("WAL stamps lost: epoch %d, seq %d", meta.Epoch, meta.WALSeq)
	}
	back, err := art.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if back == nil {
		t.Fatal("Dataset() returned nil despite HasDataset")
	}
	if back.G == nil || back.G.NumNodes() != ds.G.NumNodes() || back.G.NumEdges() != ds.G.NumEdges() {
		t.Fatal("restored dataset not wired to the artifact graph")
	}
	if !reflect.DeepEqual(back.UserFeatures, ds.UserFeatures) {
		t.Fatal("user features diverge")
	}
	if !reflect.DeepEqual(back.Interactions, ds.Interactions) {
		t.Fatal("interaction vectors diverge")
	}
	if !reflect.DeepEqual(back.TrueLabels, ds.TrueLabels) {
		t.Fatal("labels diverge")
	}
	// Only revealed=true keys are persisted; the restored map must agree
	// on exactly those.
	for k, v := range ds.Revealed {
		if back.IsRevealed(k) != v {
			t.Fatalf("revealed flag for edge %d diverges", k)
		}
	}
	for k := range back.Revealed {
		if !ds.IsRevealed(k) {
			t.Fatalf("edge %d revealed after round trip but not before", k)
		}
	}
}

func TestDatasetAbsent(t *testing.T) {
	_, _, data := saved(t, "xgb")
	art, err := artifact.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if art.HasDataset() {
		t.Fatal("plain artifact claims a dataset")
	}
	ds, err := art.Dataset()
	if err != nil || ds != nil {
		t.Fatalf("Dataset() on a plain artifact: %v, %v", ds, err)
	}
}

// TestDatasetDeterministic pins the sorted-key encoding: embedding the
// same dataset twice yields byte-identical artifacts.
func TestDatasetDeterministic(t *testing.T) {
	if !bytes.Equal(savedMutable(t), savedMutable(t)) {
		t.Fatal("identical datasets produced different artifact bytes")
	}
}

// saveMutable serializes one snapshot the way a WAL checkpoint does.
func saveMutable(ds *social.Dataset, res *core.Result) ([]byte, error) {
	ex, err := res.Export()
	if err != nil {
		return nil, err
	}
	art, err := artifact.New(ds.G, ex, 7)
	if err != nil {
		return nil, err
	}
	if err := art.EmbedDataset(ds); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = art.Save(&buf)
	return buf.Bytes(), err
}

// TestSaveWhileLaterEpochsApply is the checkpointer's contract, run under
// -race in CI: snapshot k — a dataset that carries an edit delta over maps
// it shares with its successors — is encoded on one goroutine while epochs
// k+1…k+40 apply on another (crossing a fold, so the successors also
// rebuild the maps). Every concurrent encode must equal the serial one
// byte for byte: nothing a later epoch does may reach an older snapshot.
func TestSaveWhileLaterEpochsApply(t *testing.T) {
	p, ds, res := trainedPipeline(t, "xgb")
	res.Times = core.PhaseTimes{} // wall-clock noise; successors inherit it
	rng := rand.New(rand.NewSource(21))
	epoch := func() core.ApplyStats {
		t.Helper()
		edges := ds.G.Edges()
		e := edges[rng.Intn(len(edges))]
		m := core.Mutation{Kind: core.MutRelabel, U: e.U, V: e.V, Label: social.Label(rng.Intn(4)), Revealed: rng.Intn(2) == 0}
		if rng.Intn(3) == 0 {
			m.Kind = core.MutRemove
		}
		nds, nres, stats, err := p.ApplyMutations(ds, res, []core.Mutation{m})
		if err != nil {
			t.Fatal(err)
		}
		ds, res = nds, nres
		return stats
	}
	for ds.NumEdits() < 5 {
		epoch()
	}
	dsK, resK := ds, res
	serial, err := saveMutable(dsK, resK)
	if err != nil {
		t.Fatal(err)
	}

	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for encodes := 0; ; encodes++ {
			select {
			case <-stop:
				if encodes > 0 {
					done <- nil
					return
				}
			default:
			}
			got, err := saveMutable(dsK, resK)
			if err == nil && !bytes.Equal(got, serial) {
				err = fmt.Errorf("concurrent encode %d differs from the serial encode (%d vs %d bytes)", encodes, len(got), len(serial))
			}
			if err != nil {
				done <- err
				return
			}
		}
	}()
	folds := 0
	for i := 0; i < 40; i++ {
		if epoch().Folded {
			folds++
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if folds == 0 {
		t.Fatal("40 epochs never folded the delta; the test must cross a fold")
	}
	if dsK.NumEdits() < 5 {
		t.Fatalf("snapshot k lost its delta: %d edits", dsK.NumEdits())
	}
}
