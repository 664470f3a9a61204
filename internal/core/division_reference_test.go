package core

import (
	"math/rand"
	"slices"
	"testing"

	"locec/internal/community"
	"locec/internal/graph"
	"locec/internal/social"
	"locec/internal/testutil"
	"locec/internal/wechat"
)

// The Phase I tail that shipped until the pooled ego scratch and the slab
// assembler replaced it — one allocation per community member list, three
// counting slices per ego — moved here verbatim as the oracle the scratch
// path is tested against (==). Nothing outside tests calls it. The
// extraction and the detectors it calls are the exported, copy-out entry
// points, which the graph and community packages pin to their own
// pre-rewrite statements (ego_reference_test.go, labelprop_reference_test.go).

// divideOneReference is divideOne as it was before the rewrite.
func divideOneReference(ds *social.Dataset, ego graph.NodeID, cfg DivisionConfig) *EgoResult {
	en := ds.G.Ego(ego)
	var part *community.Partition
	switch cfg.Detector {
	case DetectorLabelProp:
		part = community.LabelPropagation(en.G, 20, cfg.Seed+int64(ego))
	case DetectorLouvain:
		part = community.Louvain(en.G, cfg.Seed+int64(ego))
	case DetectorClauset, DetectorLShell:
		part = community.LocalDivide(en.G, community.LocalOptions{Kind: cfg.Detector.localKind()}).Part
	default:
		part = community.GirvanNewman(en.G, community.Options{Patience: cfg.GNPatience})
	}
	return finishEgoReference(ds, ego, en, part)
}

// finishEgoReference turns a detector partition into the EgoResult: tightness per
// Eq. 3 and ground-truth vote tallying — the detector-independent tail.
func finishEgoReference(ds *social.Dataset, ego graph.NodeID, en *graph.EgoNetwork, part *community.Partition) *EgoResult {
	res := &EgoResult{
		Ego:       ego,
		Members:   en.Members,
		CommIdx:   part.Assign,
		Tightness: make([]float64, len(en.Members)),
		Comms:     make([]*LocalCommunity, len(part.Comms)),
	}
	for ci, locals := range part.Comms {
		members := make([]graph.NodeID, len(locals))
		for i, l := range locals {
			members[i] = en.Members[l]
		}
		res.Comms[ci] = &LocalCommunity{Ego: ego, Members: members, Tightness: make([]float64, len(members))}
	}
	// Tightness per Eq. 3, using the ego network's internal adjacency.
	commSize := make([]int, len(part.Comms))
	for _, c := range part.Assign {
		commSize[c]++
	}
	posInComm := make([]int, len(en.Members)) // index of each member within its community
	counters := make([]int, len(part.Comms))
	for i := range en.Members {
		c := part.Assign[i]
		posInComm[i] = counters[c]
		counters[c]++
	}
	for i := range en.Members {
		c := part.Assign[i]
		var t float64
		if commSize[c] == 1 {
			t = 1 // Eq. 3 special case
		} else {
			inComm := 0
			degEgo := en.G.Degree(graph.NodeID(i))
			for _, nb := range en.G.Neighbors(graph.NodeID(i)) {
				if part.Assign[nb] == c {
					inComm++
				}
			}
			fc := float64(inComm)
			t = fc / float64(degEgo) * fc / float64(commSize[c]-1)
		}
		res.Tightness[i] = t
		res.Comms[c].Tightness[posInComm[i]] = t
	}
	// Ground-truth votes from revealed ego->friend edge labels.
	for i, m := range en.Members {
		k := (graph.Edge{U: ego, V: m}).Key()
		if l := ds.RevealedLabel(k); l.Valid() {
			res.Comms[part.Assign[i]].TruthVotes[l]++
		}
	}
	return res
}

// allDetectors lists the five Phase I detectors.
var allDetectors = []DetectorKind{
	DetectorGirvanNewman, DetectorLabelProp, DetectorLouvain, DetectorClauset, DetectorLShell,
}

// sameEgoResult fails on the first field in which got differs from want.
// Floats compare with ==; Local, the detector's own output, compares deeply.
func sameEgoResult(t *testing.T, what string, got, want *EgoResult) {
	t.Helper()
	if got.Ego != want.Ego || !slices.Equal(got.Members, want.Members) {
		t.Fatalf("%s: ego %d members %v, want ego %d members %v", what, got.Ego, got.Members, want.Ego, want.Members)
	}
	if !slices.Equal(got.CommIdx, want.CommIdx) {
		t.Fatalf("%s: ego %d CommIdx %v, want %v", what, want.Ego, got.CommIdx, want.CommIdx)
	}
	if !slices.Equal(got.Tightness, want.Tightness) {
		t.Fatalf("%s: ego %d Tightness %v, want %v", what, want.Ego, got.Tightness, want.Tightness)
	}
	if len(got.Comms) != len(want.Comms) {
		t.Fatalf("%s: ego %d has %d communities, want %d", what, want.Ego, len(got.Comms), len(want.Comms))
	}
	for c, w := range want.Comms {
		g := got.Comms[c]
		if g.Ego != w.Ego || !slices.Equal(g.Members, w.Members) || !slices.Equal(g.Tightness, w.Tightness) ||
			g.TruthVotes != w.TruthVotes || g.Probs != nil {
			t.Fatalf("%s: ego %d community %d = %+v, want %+v", what, want.Ego, c, *g, *w)
		}
	}
}

// TestDivideMatchesReference: for each of the five detectors, every
// EgoResult of a 300-user division on the pooled scratch equals the
// reference assembly field by field, at GOMAXPROCS 1 (one scratch sees
// every ego in turn) and 4 (egos land on whatever scratch the pool hands
// out).
func TestDivideMatchesReference(t *testing.T) {
	net, err := wechat.Generate(wechat.DefaultConfig(300, 9))
	if err != nil {
		t.Fatal(err)
	}
	net.RunSurvey(0.5, 10)
	ds := net.Dataset
	// The subtests below are named by the registry: every name parses to the
	// kind that prints it, "" is Girvan–Newman, a stray kind says so.
	for i, name := range DetectorNames() {
		if k, err := ParseDetector(name); err != nil || k != allDetectors[i] || k.String() != name {
			t.Fatalf("ParseDetector(%q) = %v, %v; want %v", name, k, err, allDetectors[i])
		}
	}
	if k, err := ParseDetector(""); err != nil || k != DetectorGirvanNewman {
		t.Fatalf(`ParseDetector("") = %v, %v; want gn`, k, err)
	}
	if got := DetectorKind(len(allDetectors)).String(); got != "DetectorKind(5)" {
		t.Fatalf("out-of-range kind prints %q", got)
	}
	for _, d := range allDetectors {
		t.Run(d.String(), func(t *testing.T) {
			cfg := DivisionConfig{Detector: d, Seed: 5}
			want := make([]*EgoResult, ds.G.NumNodes())
			for u := range want {
				want[u] = divideOneReference(ds, graph.NodeID(u), cfg)
			}
			for _, procs := range []int{1, 4} {
				testutil.SetProcs(t, procs)
				for u, got := range Divide(ds, cfg) {
					sameEgoResult(t, d.String(), got, want[u])
				}
			}
		})
	}
}

// hubDataset is a hand-built graph with the ego shapes the scratch must
// move between: node 0 is a hub whose 60 friends form four planted blocks
// of 15, node 61 is a leaf hanging off friend 1 (a one-friend ego), node 62
// is isolated and node 63 has exactly five friends, all in one block. Every
// hub edge is revealed, so votes are tallied too.
func hubDataset() *social.Dataset {
	rng := rand.New(rand.NewSource(41))
	b := graph.NewBuilder(64)
	for v := 1; v <= 60; v++ {
		_ = b.AddEdge(0, graph.NodeID(v))
		for w := v + 1; w <= 60; w++ {
			p := 0.01
			if (v-1)/15 == (w-1)/15 {
				p = 0.6
			}
			if rng.Float64() < p {
				_ = b.AddEdge(graph.NodeID(v), graph.NodeID(w))
			}
		}
	}
	_ = b.AddEdge(1, 61)
	for v := 2; v <= 6; v++ {
		_ = b.AddEdge(graph.NodeID(v), 63)
	}
	g := b.Build()
	labels, revealed := map[uint64]social.Label{}, map[uint64]bool{}
	g.ForEachEdge(func(u, v graph.NodeID) {
		k := graph.Edge{U: u, V: v}.Key()
		labels[k] = social.Label(rng.Intn(social.NumLabels))
		revealed[k] = u == 0
	})
	return &social.Dataset{
		G:            g,
		UserFeatures: make([][]float64, 64),
		Interactions: map[uint64][]float64{},
		TrueLabels:   labels,
		Revealed:     revealed,
	}
}

// TestEgoScratchHygiene: the hub ego, then a leaf ego, then an isolated
// node through one scratch give what three fresh scratches give, for every
// detector — nothing of a large ego (a community count, a label counter, a
// CSR row) leaks into the small ones after it.
func TestEgoScratchHygiene(t *testing.T) {
	ds := hubDataset()
	for _, d := range allDetectors {
		cfg := DivisionConfig{Detector: d, Seed: 3}
		var shared egoScratch
		for _, u := range []graph.NodeID{0, 61, 62, 63, 1, 0} {
			got := shared.divideOne(ds, u, cfg)
			sameEgoResult(t, d.String()+" shared vs fresh", got, new(egoScratch).divideOne(ds, u, cfg))
			sameEgoResult(t, d.String()+" shared vs reference", got, divideOneReference(ds, u, cfg))
		}
	}
}

// TestEgoResultSlabsDoNotAlias: the sub-slices of one EgoResult share two
// backing arrays, so each must end where the next begins — appending to any
// Members or Tightness slice of a result reallocates instead of writing
// into its neighbour, and the ego's Members are a copy, not the base
// graph's adjacency row.
func TestEgoResultSlabsDoNotAlias(t *testing.T) {
	ds := hubDataset()
	cfg := DivisionConfig{Detector: DetectorLabelProp, Seed: 3}
	res := Divide1(ds, 0, cfg)
	want := divideOneReference(ds, 0, cfg)
	if len(res.Comms) < 2 {
		t.Fatalf("fixture divides the hub into %d communities, want several", len(res.Comms))
	}
	res.Members = append(res.Members, ^graph.NodeID(0))
	res.Tightness = append(res.Tightness, -1)
	for _, c := range res.Comms {
		c.Members = append(c.Members, ^graph.NodeID(0))
		c.Tightness = append(c.Tightness, -1)
	}
	res.Members, res.Tightness = res.Members[:len(want.Members)], res.Tightness[:len(want.Tightness)]
	for c, w := range want.Comms {
		res.Comms[c].Members = res.Comms[c].Members[:len(w.Members)]
		res.Comms[c].Tightness = res.Comms[c].Tightness[:len(w.Tightness)]
	}
	sameEgoResult(t, "after appending to every sub-slice", res, want)

	fresh := Divide1(ds, 0, cfg)
	for i := range fresh.Members {
		fresh.Members[i] = ^graph.NodeID(0)
	}
	if !slices.Equal(ds.G.Neighbors(0), want.Members) {
		t.Fatal("EgoResult.Members aliases the base graph's adjacency row")
	}
}

// TestDivideOneAllocations: on a warm scratch a label-propagation ego costs
// the six objects its result is made of — EgoResult, ID slab, float slab,
// community array, pointer slice, CommIdx — whether it has 5 friends or 60.
func TestDivideOneAllocations(t *testing.T) {
	ds := hubDataset()
	cfg := DivisionConfig{Detector: DetectorLabelProp, Seed: 3}
	var s egoScratch
	s.divideOne(ds, 0, cfg)
	for _, u := range []graph.NodeID{63, 0} {
		if a := testing.AllocsPerRun(50, func() { s.divideOne(ds, u, cfg) }); a > 6 {
			t.Fatalf("ego %d (%d friends): %v allocations on a warm scratch, want at most 6", u, ds.G.Degree(u), a)
		}
	}
}
