package core

import (
	"math/rand"
	"testing"

	"locec/internal/graph"
	"locec/internal/social"
)

// localConfig is the fast trained configuration for a seed-grown detector.
func localConfig(d DetectorKind) Config {
	return Config{
		Division:   DivisionConfig{Detector: d, Seed: 1},
		Classifier: &XGBClassifier{Seed: 1},
		Seed:       1,
	}
}

var localDetectors = []DetectorKind{DetectorClauset, DetectorLShell, DetectorLemon}

// TestIncrementalOracleLocalDetectors: the seeded re-division path must be
// indistinguishable from a frozen full rerun for every local detector,
// across random mutation batches (adds, removes, relabels).
func TestIncrementalOracleLocalDetectors(t *testing.T) {
	for _, d := range localDetectors {
		t.Run(d.String(), func(t *testing.T) {
			p, ds, res := incrementalFixture(t, localConfig(d))
			rng := rand.New(rand.NewSource(31))
			for trial := 0; trial < 3; trial++ {
				batch := randomBatch(rng, ds.G, 6)
				if err := VerifyIncremental(p, ds, res, batch, 1e-12); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
		})
	}
}

// TestIncrementalSeededChainedApplies: egos produced by the seeded path
// keep their grow provenance, so a second epoch can seed off the first
// epoch's output.
func TestIncrementalSeededChainedApplies(t *testing.T) {
	p, ds, res := incrementalFixture(t, localConfig(DetectorClauset))
	rng := rand.New(rand.NewSource(13))
	for epoch := 0; epoch < 3; epoch++ {
		batch := randomBatch(rng, ds.G, 4)
		if err := VerifyIncremental(p, ds, res, batch, 1e-12); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		var err error
		ds, res, _, err = p.ApplyMutations(ds, res, batch)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}
}

// TestSeededStatsRelabelOnly: a relabel batch changes no topology, so every
// dirty ego (the two endpoints) replays its stored grows wholesale — the
// cheapest possible re-division.
func TestSeededStatsRelabelOnly(t *testing.T) {
	p, ds, res := incrementalFixture(t, localConfig(DetectorClauset))
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
		t.Skip("fixture has no revealed labeled edge")
	}
	newLabel := social.Label((int(ds.TrueLabel(e.Key())) + 1) % social.NumLabels)
	_, _, stats, err := p.ApplyMutations(ds, res, []Mutation{
		{Kind: MutRelabel, U: e.U, V: e.V, Label: newLabel, Revealed: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DirtyNodes != 2 {
		t.Fatalf("relabel dirtied %d nodes, want 2", stats.DirtyNodes)
	}
	if stats.SeededEgos != 2 {
		t.Fatalf("relabel seeded %d egos, want 2 (member sets unchanged)", stats.SeededEgos)
	}
}

// TestSeededStatsEdgeMutation: adding an edge between two nodes with a
// common neighbor makes the endpoints fall back to full re-division (their
// ego member sets changed) while the common neighbors take the seeded path
// (their member sets are intact — only internal adjacency moved).
func TestSeededStatsEdgeMutation(t *testing.T) {
	p, ds, res := incrementalFixture(t, localConfig(DetectorClauset))
	// Find an absent pair with at least one common neighbor.
	var mu, mv graph.NodeID
	common := -1
	n := graph.NodeID(ds.G.NumNodes())
	for u := graph.NodeID(0); u < n && common <= 0; u++ {
		for v := u + 1; v < n && common <= 0; v++ {
			if ds.G.HasEdge(u, v) {
				continue
			}
			c := 0
			for _, w := range ds.G.Neighbors(u) {
				if ds.G.HasEdge(v, w) {
					c++
				}
			}
			if c > 0 {
				mu, mv, common = u, v, c
			}
		}
	}
	if common <= 0 {
		t.Skip("fixture has no absent pair with common neighbors")
	}
	_, _, stats, err := p.ApplyMutations(ds, res, []Mutation{
		{Kind: MutAdd, U: mu, V: mv, Label: social.Family, Revealed: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DirtyNodes != common+2 {
		t.Fatalf("dirtied %d nodes, want %d", stats.DirtyNodes, common+2)
	}
	if stats.SeededEgos < 1 {
		t.Fatalf("no ego took the seeded path (stats = %+v)", stats)
	}
	// The two endpoints can never seed — their member sets changed.
	if stats.SeededEgos > stats.DirtyNodes-2 {
		t.Fatalf("endpoints took the seeded path: %d seeded of %d dirty", stats.SeededEgos, stats.DirtyNodes)
	}
}

// TestSeededStatsGlobalDetectorZero: global detectors have no grow
// provenance, so the seeded counter stays at zero.
func TestSeededStatsGlobalDetectorZero(t *testing.T) {
	p, ds, res := incrementalFixture(t, xgbConfig()) // labelprop
	rng := rand.New(rand.NewSource(3))
	_, _, stats, err := p.ApplyMutations(ds, res, randomBatch(rng, ds.G, 5))
	if err != nil {
		t.Fatal(err)
	}
	if stats.SeededEgos != 0 {
		t.Fatalf("global detector reported %d seeded egos", stats.SeededEgos)
	}
}
