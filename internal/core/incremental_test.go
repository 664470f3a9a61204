package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"locec/internal/graph"
	"locec/internal/social"
	"locec/internal/wechat"
)

// incrementalFixture trains a pipeline on a small WeChat-like dataset and
// returns everything a mutation test needs.
func incrementalFixture(t testing.TB, cfg Config) (*Pipeline, *social.Dataset, *Result) {
	t.Helper()
	net, err := wechat.Generate(wechat.DefaultConfig(90, 3))
	if err != nil {
		t.Fatal(err)
	}
	net.RunSurvey(0.5, 4)
	ds := net.Dataset
	p := NewPipeline(cfg)
	res, err := p.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	return p, ds, res
}

// xgbConfig is the fast trained configuration the incremental tests use.
func xgbConfig() Config {
	return Config{
		Division:   DivisionConfig{Detector: DetectorLabelProp, Seed: 1},
		Classifier: &XGBClassifier{Seed: 1},
		Seed:       1,
	}
}

// localConfig is xgbConfig under detector d.
func localConfig(d DetectorKind) Config {
	cfg := xgbConfig()
	cfg.Division.Detector = d
	return cfg
}

var localDetectors = []DetectorKind{DetectorClauset, DetectorLShell}

// randomBatch builds count random valid mutations against the current
// graph: absent pairs are added (some revealed, with interactions),
// present edges alternate between removal and relabeling.
func randomBatch(rng *rand.Rand, g *graph.Graph, count int) []Mutation {
	n := g.NumNodes()
	var batch []Mutation
	state := map[uint64]bool{} // intra-batch edge existence delta
	exists := func(u, v graph.NodeID) bool {
		if b, ok := state[(graph.Edge{U: u, V: v}).Key()]; ok {
			return b
		}
		return g.HasEdge(u, v)
	}
	for len(batch) < count {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		k := (graph.Edge{U: u, V: v}).Key()
		switch {
		case !exists(u, v):
			m := Mutation{Kind: MutAdd, U: u, V: v, Label: social.Label(rng.Intn(4)), Revealed: rng.Intn(2) == 0}
			if rng.Intn(2) == 0 {
				iv := make([]float64, social.NumInteractionDims)
				for d := range iv {
					iv[d] = float64(rng.Intn(20))
				}
				m.Interactions = iv
			}
			batch = append(batch, m)
			state[k] = true
		case rng.Intn(2) == 0:
			batch = append(batch, Mutation{Kind: MutRemove, U: u, V: v})
			state[k] = false
		default:
			batch = append(batch, Mutation{Kind: MutRelabel, U: u, V: v, Label: social.Label(rng.Intn(4)), Revealed: true})
		}
	}
	return batch
}

func TestIncrementalOracleRandomBatches(t *testing.T) {
	p, ds, res := incrementalFixture(t, xgbConfig())
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 4; trial++ {
		batch := randomBatch(rng, ds.G, 6)
		if err := VerifyIncremental(p, ds, res, batch); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestIncrementalOracleChainedApplies(t *testing.T) {
	p, ds, res := incrementalFixture(t, xgbConfig())
	rng := rand.New(rand.NewSource(9))
	// Apply batches back to back: each epoch builds on the previous
	// epoch's output, like the serving layer's coalescing applier.
	for epoch := 0; epoch < 3; epoch++ {
		batch := randomBatch(rng, ds.G, 4)
		if err := VerifyIncremental(p, ds, res, batch); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		var err error
		ds, res, _, err = p.ApplyMutations(ds, res, batch)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("epoch %d: mutated dataset invalid: %v", epoch, err)
		}
	}
}

// TestIncrementalOracleLocalDetectors: every seed-grown detector's epoch is
// indistinguishable from a frozen full rerun across random mutation batches
// (adds, removes, relabels).
func TestIncrementalOracleLocalDetectors(t *testing.T) {
	for _, d := range localDetectors {
		t.Run(d.String(), func(t *testing.T) {
			p, ds, res := incrementalFixture(t, localConfig(d))
			rng := rand.New(rand.NewSource(31))
			for trial := 0; trial < 3; trial++ {
				batch := randomBatch(rng, ds.G, 6)
				if err := VerifyIncremental(p, ds, res, batch); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
		})
	}
}

// TestIncrementalSeededChainedApplies: under a seed-grown detector (Clauset)
// a second and third epoch build on the egos the previous epoch re-divided.
func TestIncrementalSeededChainedApplies(t *testing.T) {
	p, ds, res := incrementalFixture(t, localConfig(DetectorClauset))
	rng := rand.New(rand.NewSource(13))
	for epoch := 0; epoch < 3; epoch++ {
		batch := randomBatch(rng, ds.G, 4)
		if err := VerifyIncremental(p, ds, res, batch); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		var err error
		ds, res, _, err = p.ApplyMutations(ds, res, batch)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}
}

func TestIncrementalOracleAgreementRule(t *testing.T) {
	cfg := xgbConfig()
	cfg.AgreementRule = true
	p, ds, res := incrementalFixture(t, cfg)
	rng := rand.New(rand.NewSource(5))
	if err := VerifyIncremental(p, ds, res, randomBatch(rng, ds.G, 5)); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalOracleCNN(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN training in -short mode")
	}
	cfg := Config{
		Division:   DivisionConfig{Detector: DetectorLabelProp, Seed: 2},
		Classifier: &CNNClassifier{K: 8, Epochs: 2, Seed: 2},
		Seed:       2,
	}
	p, ds, res := incrementalFixture(t, cfg)
	rng := rand.New(rand.NewSource(7))
	if err := VerifyIncremental(p, ds, res, randomBatch(rng, ds.G, 5)); err != nil {
		t.Fatal(err)
	}
}

func TestApplyMutationsCopyOnWrite(t *testing.T) {
	p, ds, res := incrementalFixture(t, xgbConfig())
	beforeEdges := ds.G.NumEdges()
	beforePreds := res.Edges.Len()

	// Find an absent pair and a present edge deterministically.
	var addU, addV graph.NodeID
	n := graph.NodeID(ds.G.NumNodes())
	found := false
	for u := graph.NodeID(0); u < n && !found; u++ {
		for v := u + 1; v < n && !found; v++ {
			if !ds.G.HasEdge(u, v) {
				addU, addV, found = u, v, true
			}
		}
	}
	if !found {
		t.Fatal("graph is complete")
	}
	removeE := ds.G.Edges()[0]

	batch := []Mutation{
		{Kind: MutAdd, U: addU, V: addV, Label: social.Family, Revealed: true},
		{Kind: MutRemove, U: removeE.U, V: removeE.V},
	}
	newDS, newRes, stats, err := p.ApplyMutations(ds, res, batch)
	if err != nil {
		t.Fatal(err)
	}

	// Inputs untouched.
	if ds.G.NumEdges() != beforeEdges || res.Edges.Len() != beforePreds {
		t.Fatal("ApplyMutations mutated its inputs")
	}
	if ds.G.HasEdge(addU, addV) {
		t.Fatal("added edge leaked into the old graph")
	}
	if _, ok := res.Edges.Label((graph.Edge{U: addU, V: addV}).Key()); ok {
		t.Fatal("added edge leaked into the old predictions")
	}

	// Outputs mutated.
	if !newDS.G.HasEdge(addU, addV) || newDS.G.HasEdge(removeE.U, removeE.V) {
		t.Fatal("mutations not visible in the new graph")
	}
	if _, ok := newRes.PredictedLabelOK(addU, addV); !ok {
		t.Fatal("added edge has no prediction")
	}
	if _, ok := newRes.PredictedLabelOK(removeE.U, removeE.V); ok {
		t.Fatal("removed edge still predicted")
	}
	if newDS.G.NumEdges() != beforeEdges {
		t.Fatalf("edge count %d, want %d", newDS.G.NumEdges(), beforeEdges)
	}
	if err := newDS.Validate(); err != nil {
		t.Fatalf("mutated dataset invalid: %v", err)
	}
	if newRes.Edges.Len() != newDS.G.NumEdges() {
		t.Fatalf("%d predictions for %d edges", newRes.Edges.Len(), newDS.G.NumEdges())
	}

	// Stats describe the work.
	if stats.Mutations != 2 || stats.AddedEdges != 1 || stats.RemovedEdges != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.DirtyNodes < 2 || stats.DirtyEdges == 0 {
		t.Fatalf("stats dirty counts implausible: %+v", stats)
	}

	// A mutated result still exports (the artifact path).
	if _, err := newRes.Export(); err != nil {
		t.Fatalf("mutated result does not export: %v", err)
	}
}

func TestApplyMutationsRejectsInvalid(t *testing.T) {
	p, ds, res := incrementalFixture(t, xgbConfig())
	e := ds.G.Edges()[0]
	cases := []struct {
		name  string
		batch []Mutation
	}{
		{"empty", nil},
		{"self-loop", []Mutation{{Kind: MutAdd, U: 1, V: 1, Label: social.Family}}},
		{"out-of-range", []Mutation{{Kind: MutAdd, U: 0, V: graph.NodeID(ds.G.NumNodes()), Label: social.Family}}},
		{"add-existing", []Mutation{{Kind: MutAdd, U: e.U, V: e.V, Label: social.Family}}},
		{"remove-absent", []Mutation{{Kind: MutRemove, U: 0, V: graph.NodeID(ds.G.NumNodes() - 1)}}},
		{"relabel-invalid-label", []Mutation{{Kind: MutRelabel, U: e.U, V: e.V, Label: social.Unlabeled}}},
		{"add-bad-interactions", []Mutation{{Kind: MutAdd, U: 0, V: 5, Label: social.Family, Interactions: []float64{1, 2}}}},
		{"unknown-kind", []Mutation{{Kind: MutationKind(99), U: 0, V: 1}}},
	}
	for _, tc := range cases {
		if tc.name == "remove-absent" && ds.G.HasEdge(0, graph.NodeID(ds.G.NumNodes()-1)) {
			t.Skip("fixture has the probe edge; pick another")
		}
		if _, _, _, err := p.ApplyMutations(ds, res, tc.batch); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The failed applies must not have touched the inputs.
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyMutationsRemoveEveryEdge(t *testing.T) {
	// A remove-heavy batch (more removals than surviving communities)
	// must not panic and must leave a consistent empty prediction set.
	p, ds, res := incrementalFixture(t, xgbConfig())
	edges := ds.G.Edges()
	batch := make([]Mutation, len(edges))
	for i, e := range edges {
		batch[i] = Mutation{Kind: MutRemove, U: e.U, V: e.V}
	}
	newDS, newRes, stats, err := p.ApplyMutations(ds, res, batch)
	if err != nil {
		t.Fatal(err)
	}
	if newDS.G.NumEdges() != 0 || newRes.Edges.Len() != 0 {
		t.Fatalf("edges=%d predictions=%d after removing everything",
			newDS.G.NumEdges(), newRes.Edges.Len())
	}
	if stats.RemovedEdges != len(edges) || stats.DirtyEdges != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if err := newDS.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyMutationsRejectsArtifactOnlyDataset(t *testing.T) {
	p, ds, res := incrementalFixture(t, xgbConfig())
	bare := &social.Dataset{G: ds.G} // what an artifact cold start carries
	_, _, _, err := p.ApplyMutations(bare, res, []Mutation{{Kind: MutRemove, U: 0, V: 1}})
	if err == nil {
		t.Fatal("artifact-only dataset accepted")
	}
}

func TestApplyMutationsRelabelFlipsTruthVotes(t *testing.T) {
	p, ds, res := incrementalFixture(t, xgbConfig())
	// Pick a revealed edge and flip its label; the endpoint egos must see
	// the new vote.
	var e graph.Edge
	found := false
	for k := range ds.AllRevealed() {
		if ds.TrueLabel(k).Valid() {
			e = graph.EdgeFromKey(k)
			found = true
			break
		}
	}
	if !found {
		t.Skip("fixture has no revealed predictable edge")
	}
	oldLabel := ds.TrueLabel(e.Key())
	newLabel := social.Label((int(oldLabel) + 1) % social.NumLabels)
	_, newRes, stats, err := p.ApplyMutations(ds, res, []Mutation{
		{Kind: MutRelabel, U: e.U, V: e.V, Label: newLabel, Revealed: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DirtyNodes != 2 || stats.AddedEdges != 0 || stats.RemovedEdges != 0 {
		t.Fatalf("relabel stats = %+v", stats)
	}
	// The community of v inside u's ego network now votes for newLabel.
	c, _ := newRes.Egos[e.U].CommunityOf(e.V)
	if c.TruthVotes[newLabel] == 0 {
		t.Fatalf("relabel did not reach ego %d's community votes: %v", e.U, c.TruthVotes)
	}
	// Untouched egos are shared, not recomputed: pointer-equal entries.
	sharedEgos := 0
	for i := range res.Egos {
		if newRes.Egos[i] == res.Egos[i] {
			sharedEgos++
		}
	}
	if sharedEgos != len(res.Egos)-2 {
		t.Fatalf("%d shared egos, want %d", sharedEgos, len(res.Egos)-2)
	}
}

// TestApplyMutationsAllocatesLittle bounds what a one-add epoch allocates
// on a 2 000-user network under clauset + XGB: the dirty egos, their edges
// and the copy-on-write tables, not a copy of the graph or of the community
// list. 40 chained epochs must average at most 3.5 bytes per edge (2.5–2.7
// on amd64 at GOMAXPROCS 1–8 since Compact copies the block pointer table
// and the splice the store's top level and changed leaves; 3.1 while both
// copied a flat table, 5.5 while the splice rebuilt every chunk holding a
// dirty key, 11.2 while the chunk table held headers rather than pointers
// and Phase III made a fresh panel per call). Under -race, where sync.Pool
// drops Puts at random and the Phase III panel is often rebuilt (9–10.3
// measured), the bound stays at the 16 it had before the pool.
func TestApplyMutationsAllocatesLittle(t *testing.T) {
	net, err := wechat.Generate(wechat.DefaultConfig(2000, 3))
	if err != nil {
		t.Fatal(err)
	}
	net.RunSurvey(0.5, 4)
	ds := net.Dataset
	p := NewPipeline(localConfig(DetectorClauset))
	res, err := p.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	e := uint64(ds.G.NumEdges())
	rng := rand.New(rand.NewSource(3))
	var before, after runtime.MemStats
	total := uint64(0)
	const epochs = 40
	for i := 0; i < epochs; {
		u, v := graph.NodeID(rng.Intn(ds.G.NumNodes())), graph.NodeID(rng.Intn(ds.G.NumNodes()))
		if u == v || ds.G.HasEdge(u, v) {
			continue
		}
		batch := []Mutation{{Kind: MutAdd, U: u, V: v, Label: social.Label(i % 4), Revealed: true}}
		i++
		runtime.ReadMemStats(&before)
		ds, res, _, err = p.ApplyMutations(ds, res, batch)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		total += after.TotalAlloc - before.TotalAlloc
	}
	limit := 3.5
	if raceBuild {
		limit = 16
	}
	if avg := total / epochs; float64(avg) > limit*float64(e) {
		t.Fatalf("ApplyMutations allocated %d B per one-add epoch = %.1f B/edge, want ≤ %.1f (E=%d)", avg, float64(avg)/float64(e), limit, e)
	} else {
		t.Logf("ApplyMutations allocated %d B per one-add epoch = %.1f B/edge (E=%d)", avg, float64(avg)/float64(e), e)
	}
}

// TestDiffResultsRefusesNaN: the incremental oracle reports a NaN
// probability as a divergence, even against the same NaN bits.
func TestDiffResultsRefusesNaN(t *testing.T) {
	result := func(p float64) *Result {
		es, err := NewEdgeStore([]uint64{7}, []social.Label{0}, []float64{p, 1 - p}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return &Result{Edges: es}
	}
	if err := diffResults(result(0), result(0)); err != nil {
		t.Fatalf("identical results: %v", err)
	}
	if err := diffResults(result(0), result(math.NaN())); err == nil {
		t.Fatal("diffResults(want 0, got NaN) = nil, want a divergence")
	}
	if err := diffResults(result(math.NaN()), result(math.NaN())); err == nil {
		t.Fatal("diffResults(want NaN, got NaN) = nil, want a divergence")
	}
}

// TestNumCommunitiesOneCount: the community count a result reports is the
// length of the flat list Phase II classified, whichever path built the
// result — Run, RunFrozen, RunFromArtifact — and after 50 chained
// epochs it equals a frozen from-scratch rerun's on the mutated dataset.
func TestNumCommunitiesOneCount(t *testing.T) {
	p, ds, res := incrementalFixture(t, xgbConfig())
	if got, want := res.NumCommunities(), len(res.Communities); got != want || got == 0 {
		t.Fatalf("Run: NumCommunities %d, flat list %d", got, want)
	}
	if got := len(res.CommunitySizes()); got != len(res.Communities) {
		t.Fatalf("Run: %d community sizes for %d communities", got, len(res.Communities))
	}
	frozen, err := p.RunFrozen(ds, res)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := frozen.NumCommunities(), len(frozen.Communities); got != want {
		t.Fatalf("RunFrozen: NumCommunities %d, flat list %d", got, want)
	}
	ex, err := res.Export()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := NewPipeline(xgbConfig()).RunFromArtifact(ex)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.NumCommunities(), len(res.Communities); got != want {
		t.Fatalf("RunFromArtifact: NumCommunities %d, want %d", got, want)
	}

	rng := rand.New(rand.NewSource(50))
	for epoch := 0; epoch < 50; epoch++ {
		ds, res, _, err = p.ApplyMutations(ds, res, randomBatch(rng, ds.G, 2))
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}
	if want, err := p.RunFrozen(ds, res); err != nil {
		t.Fatal(err)
	} else if got := res.NumCommunities(); got != len(want.Communities) {
		t.Fatalf("after 50 epochs: NumCommunities %d, frozen rerun classified %d", got, len(want.Communities))
	}
	if res.Communities != nil {
		t.Fatalf("ApplyMutations result carries a %d-entry flat list; only Run and RunFrozen fill it", len(res.Communities))
	}
}
