package bench

import "testing"

func TestDatasetFixtureCached(t *testing.T) {
	a, err := Dataset(50, 1.0, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Dataset(50, 1.0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same parameters returned distinct datasets — cache miss")
	}
	c, err := Dataset(50, 1.0, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seed returned the cached dataset")
	}
}

func TestDatasetDensityMonotone(t *testing.T) {
	sparse, err := Dataset(200, 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Dataset(200, 1.0, 42)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := Dataset(200, 2.0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !(sparse.G.NumEdges() < base.G.NumEdges() && base.G.NumEdges() < dense.G.NumEdges()) {
		t.Errorf("edge counts not monotone in density: sparse=%d base=%d dense=%d",
			sparse.G.NumEdges(), base.G.NumEdges(), dense.G.NumEdges())
	}
	if sparse.G.NumNodes() != dense.G.NumNodes() {
		t.Errorf("density sweep changed population: %d vs %d", sparse.G.NumNodes(), dense.G.NumNodes())
	}
}

func TestDatasetRejectsTinyPopulation(t *testing.T) {
	if _, err := Dataset(5, 1.0, 42); err == nil {
		t.Error("Dataset(5) succeeded, want generator error")
	}
}

func TestGraphFixturesCachedAndDeterministic(t *testing.T) {
	if EgoGraph(32, 1) != EgoGraph(32, 1) {
		t.Error("EgoGraph not cached")
	}
	if RandomGraph(100, 8, 3) != RandomGraph(100, 8, 3) {
		t.Error("RandomGraph not cached")
	}
	g := EgoGraph(32, 1)
	if g.NumNodes() != 32 || g.NumEdges() == 0 {
		t.Errorf("EgoGraph shape off: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	edges := RandomEdges(100, 500, 9)
	if len(edges) != 500 {
		t.Fatalf("RandomEdges returned %d, want 500", len(edges))
	}
	for _, e := range edges {
		if e[0] == e[1] {
			t.Fatal("RandomEdges produced a self loop")
		}
	}
}
