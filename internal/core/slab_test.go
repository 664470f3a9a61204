package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"locec/internal/graph"
	"locec/internal/social"
	"locec/internal/tensor"
	"locec/internal/wechat"
)

// xgbRun runs the xgbConfig pipeline on an n-user WeChat-like network.
func xgbRun(t *testing.T, n int) (*Pipeline, *social.Dataset, *Result) {
	t.Helper()
	net, err := wechat.Generate(wechat.DefaultConfig(n, 21))
	if err != nil {
		t.Fatal(err)
	}
	net.RunSurvey(0.4, 22)
	p := NewPipeline(xgbConfig())
	res, err := p.Run(net.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	return p, net.Dataset, res
}

// TestXGBClassifyAllocatesPerBlock: Classify allocates per worker block —
// its pooler scratch and one slab for every r_C and probability vector of
// the block — not per community (three objects each before the slabs).
func TestXGBClassifyAllocatesPerBlock(t *testing.T) {
	_, ds, res := xgbRun(t, 450)
	comms := res.Communities
	if len(comms) < 1000 {
		t.Fatalf("fixture has %d communities, want ≥ 1000", len(comms))
	}
	budget := 4 * runtime.GOMAXPROCS(0)
	allocs := testing.AllocsPerRun(3, func() { res.Classifier.Classify(ds, comms) })
	if allocs > float64(budget) {
		t.Fatalf("Classify of %d communities made %v allocations, want ≤ %d", len(comms), allocs, budget)
	}
}

// TestTrainCombinerCopiesOnce: the combiner's training matrix is built
// once, as bias-first rows that logreg standardises in place, so
// TrainCombiner allocates little beyond rows × (width+1) float64s (twice
// that while logreg copied the matrix into an arena of its own).
func TestTrainCombinerCopiesOnce(t *testing.T) {
	p, ds, res := xgbRun(t, 300)
	rows, width := len(ds.LabeledEdges()), res.Combiner.Features
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := p.TrainCombiner(ds, res)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	matrix := float64(rows * (width + 1) * 8)
	got := float64(after.TotalAlloc - before.TotalAlloc)
	if got > 1.2*matrix {
		t.Fatalf("TrainCombiner allocated %.0f B = %.2f× its %d×%d bias-first matrix, want ≤ 1.2×", got, got/matrix, rows, width+1)
	}
	t.Logf("TrainCombiner allocated %.2f× its %d×%d bias-first matrix", got/matrix, rows, width+1)
}

// TestTrainCombinerRefusesRaggedRows: an endpoint community with no
// Result makes its edges' rows short. The arena is sized from row 0, so
// such a row would shift every later one; TrainCombiner names the first
// edge that reads the community instead of training on shifted rows.
func TestTrainCombinerRefusesRaggedRows(t *testing.T) {
	p, ds, res := incrementalFixture(t, xgbConfig())
	labeled := ds.LabeledEdges()
	endpoints := func(k uint64) (cu, cv *LocalCommunity) {
		e := graph.EdgeFromKey(k)
		cu, _ = res.Egos[e.V].CommunityOf(e.U)
		cv, _ = res.Egos[e.U].CommunityOf(e.V)
		return cu, cv
	}
	// Clear a community the first row does not read, so row 0 keeps the
	// full width.
	first0, first1 := endpoints(labeled[0])
	var cleared *LocalCommunity
	for _, k := range labeled[len(labeled)/2:] {
		if cu, _ := endpoints(k); cu != first0 && cu != first1 {
			cleared = cu
			break
		}
	}
	if cleared == nil {
		t.Fatal("every labelled edge reads one of the first edge's communities")
	}
	cleared.Result = nil
	var want graph.Edge
	for _, k := range labeled {
		if cu, cv := endpoints(k); cu == cleared || cv == cleared {
			want = graph.EdgeFromKey(k)
			break
		}
	}
	err := p.TrainCombiner(ds, res)
	if name := fmt.Sprintf("edge (%d,%d)", want.U, want.V); err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("error %v, want one naming %s", err, name)
	}
}

// TestPhaseIIViewsCappedAndOwned: every community's Result and Probs is a
// capped view of its worker's slab (cap == len, so an append copies rather
// than writing into the neighbouring vector) after Run, RunFrozen and 50
// chained mutation epochs, and the epochs never write into the first
// snapshot's vectors.
func TestPhaseIIViewsCappedAndOwned(t *testing.T) {
	p, ds, res := incrementalFixture(t, xgbConfig())
	type vectors struct{ result, probs []float64 }
	first := map[*LocalCommunity]vectors{}
	for _, c := range res.Communities {
		first[c] = vectors{slices.Clone(c.Result), slices.Clone(c.Probs)}
	}
	check := func(stage string, r *Result) {
		t.Helper()
		for _, er := range r.Egos {
			for _, c := range er.Comms {
				if len(c.Result) == 0 || len(c.Probs) == 0 || cap(c.Result) != len(c.Result) || cap(c.Probs) != len(c.Probs) {
					t.Fatalf("%s: community of ego %d has Result len %d cap %d, Probs len %d cap %d",
						stage, c.Ego, len(c.Result), cap(c.Result), len(c.Probs), cap(c.Probs))
				}
			}
		}
	}
	check("Run", res)
	frozen, err := p.RunFrozen(ds, res)
	if err != nil {
		t.Fatal(err)
	}
	check("RunFrozen", frozen)
	rng := rand.New(rand.NewSource(51))
	for epoch := 0; epoch < 50; epoch++ {
		if ds, res, _, err = p.ApplyMutations(ds, res, randomBatch(rng, ds.G, 2)); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		check(fmt.Sprintf("epoch %d", epoch), res)
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for c, v := range first {
		if !slices.EqualFunc(c.Result, v.result, sameBits) || !slices.EqualFunc(c.Probs, v.probs, sameBits) {
			t.Fatalf("community of ego %d in the first snapshot changed under later epochs", c.Ego)
		}
	}
}

// TestCNNClassifySlabsMatchPredict: CNNClassifier.Classify builds every
// feature matrix into one reused tensor per worker block and writes the
// probabilities into one slab per block, yet hands every community exactly
// what the network returns for the community's own FeatureMatrix, as a
// capped view shared by Result and Probs — and allocates per block (≈ 100
// objects, mostly the network clone and its layers' scratch), not per
// community (about nine objects each before the slabs). AllocsPerRun runs
// at GOMAXPROCS 1, so that is one block.
func TestCNNClassifySlabsMatchPredict(t *testing.T) {
	ds, _, comms := featureFixture(t)
	var train []*LocalCommunity
	var labels []social.Label
	for _, c := range comms {
		if l := c.TruthLabel(); l.Valid() {
			train, labels = append(train, c), append(labels, l)
		}
	}
	clf := &CNNClassifier{K: 8, Filters: 2, Hidden: 8, Epochs: 1, Seed: 1}
	if err := clf.Fit(ds, train, labels); err != nil {
		t.Fatal(err)
	}
	clf.Classify(ds, comms)
	for i, c := range comms {
		want := clf.net.Predict(tensor.FromMatrix(FeatureMatrix(ds, c, clf.K)))
		if !slices.Equal(c.Probs, want) || &c.Result[0] != &c.Probs[0] || cap(c.Probs) != len(c.Probs) {
			t.Fatalf("community %d: Probs %v (cap %d), Predict %v; Result %v", i, c.Probs, cap(c.Probs), want, c.Result)
		}
	}
	if allocs := testing.AllocsPerRun(3, func() { clf.Classify(ds, comms) }); allocs > 200 {
		t.Fatalf("Classify of %d communities made %v allocations, want ≤ 200", len(comms), allocs)
	}
}
