package core

import (
	"math"
	"testing"

	"locec/internal/eval"
	"locec/internal/graph"
	"locec/internal/social"
	"locec/internal/testutil"
	"locec/internal/wechat"
)

// paperDataset builds Fig. 7(a)'s network as a minimal dataset.
func paperDataset() *social.Dataset {
	edges := []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}, {U: 0, V: 5},
		{U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3},
		{U: 3, V: 5}, {U: 4, V: 5},
		{U: 6, V: 7}, {U: 6, V: 8}, {U: 1, V: 6},
	}
	g := graph.FromEdges(9, edges)
	feats := make([][]float64, 9)
	for i := range feats {
		feats[i] = []float64{0, 0}
	}
	labels := make(map[uint64]social.Label)
	g.ForEachEdge(func(u, v graph.NodeID) {
		labels[(graph.Edge{U: u, V: v}).Key()] = social.Colleague
	})
	return &social.Dataset{
		G:            g,
		UserFeatures: feats,
		Interactions: map[uint64][]float64{},
		TrueLabels:   labels,
		Revealed:     map[uint64]bool{},
	}
}

func TestDivideTightnessPaperExample(t *testing.T) {
	ds := paperDataset()
	testutil.SetProcs(t, 1)
	egos := Divide(ds, DivisionConfig{})
	u1 := egos[0] // ego U1: friends U2..U6 (IDs 1..5)
	if len(u1.Members) != 5 {
		t.Fatalf("U1 ego members = %v", u1.Members)
	}
	if len(u1.Comms) != 2 {
		t.Fatalf("U1 communities = %d, want 2", len(u1.Comms))
	}
	// Find community containing U2 (ID 1): must be {U2,U3,U4} = {1,2,3}.
	c1, tU2 := u1.CommunityOf(1)
	if len(c1.Members) != 3 {
		t.Fatalf("C1 members = %v", c1.Members)
	}
	// Paper: tightness(U2,C1) = tightness(U3,C1) = 1.
	if math.Abs(tU2-1) > 1e-12 {
		t.Fatalf("tightness(U2,C1) = %v, want 1", tU2)
	}
	_, tU3 := u1.CommunityOf(2)
	if math.Abs(tU3-1) > 1e-12 {
		t.Fatalf("tightness(U3,C1) = %v, want 1", tU3)
	}
	// Paper: tightness(U4,C1) = 2/2 × 2/3 ... printed as 0.67 (= 2/3
	// after the 2/2 × 2/3 product ordering in the running text).
	_, tU4 := u1.CommunityOf(3)
	if math.Abs(tU4-2.0/3.0) > 1e-9 {
		t.Fatalf("tightness(U4,C1) = %v, want 2/3", tU4)
	}
	// C2 = {U5, U6} (IDs 4, 5): both fully internal -> each has 1 of 1
	// neighbors in C2, but U6 also touches U4 in the ego network.
	c2, tU5 := u1.CommunityOf(4)
	if len(c2.Members) != 2 {
		t.Fatalf("C2 members = %v", c2.Members)
	}
	if math.Abs(tU5-1) > 1e-12 {
		t.Fatalf("tightness(U5,C2) = %v, want 1", tU5)
	}
	_, tU6 := u1.CommunityOf(5)
	if math.Abs(tU6-0.5) > 1e-12 { // 1/2 × 1/1
		t.Fatalf("tightness(U6,C2) = %v, want 0.5", tU6)
	}
}

func TestDivideSingletonCommunityTightnessOne(t *testing.T) {
	// Star: the center's ego network is edgeless, every friend is a
	// singleton community with tightness 1 (Eq. 3 special case).
	b := graph.NewBuilder(5)
	for v := graph.NodeID(1); v < 5; v++ {
		_ = b.AddEdge(0, v)
	}
	g := b.Build()
	labels := map[uint64]social.Label{}
	g.ForEachEdge(func(u, v graph.NodeID) {
		labels[(graph.Edge{U: u, V: v}).Key()] = social.Family
	})
	feats := make([][]float64, 5)
	for i := range feats {
		feats[i] = []float64{0}
	}
	ds := &social.Dataset{G: g, UserFeatures: feats, Interactions: map[uint64][]float64{}, TrueLabels: labels, Revealed: map[uint64]bool{}}
	testutil.SetProcs(t, 1)
	egos := Divide(ds, DivisionConfig{})
	center := egos[0]
	if len(center.Comms) != 4 {
		t.Fatalf("center communities = %d, want 4", len(center.Comms))
	}
	for i, tight := range center.Tightness {
		if tight != 1 {
			t.Fatalf("singleton tightness[%d] = %v, want 1", i, tight)
		}
	}
}

func TestTightnessBoundsProperty(t *testing.T) {
	net, err := wechat.Generate(wechat.DefaultConfig(200, 3))
	if err != nil {
		t.Fatal(err)
	}
	egos := Divide(net.Dataset, DivisionConfig{})
	for _, er := range egos {
		for i, tight := range er.Tightness {
			if tight <= 0 || tight > 1+1e-12 {
				t.Fatalf("ego %d member %d tightness %v out of (0,1]", er.Ego, er.Members[i], tight)
			}
		}
		// Partition invariant: every member in exactly one community.
		seen := map[graph.NodeID]bool{}
		total := 0
		for _, c := range er.Comms {
			total += len(c.Members)
			for _, m := range c.Members {
				if seen[m] {
					t.Fatalf("ego %d: member %d in two communities", er.Ego, m)
				}
				seen[m] = true
			}
		}
		if total != len(er.Members) {
			t.Fatalf("ego %d: %d members across comms, want %d", er.Ego, total, len(er.Members))
		}
	}
}

func TestInteractFeaturesNormalization(t *testing.T) {
	// Community of three nodes with known interactions on dim 0:
	// I(0,1)=2, I(0,2)=1, I(1,2)=0 -> totals 3.
	// interact(0,C,0) = 3/3=1? No: node 0 touches 2+1=3 of total 3 -> 1.
	// node1: 2/3, node2: 1/3.
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 0, V: 3}})
	inter := map[uint64][]float64{}
	mk := func(u, v graph.NodeID, c float64) {
		vec := make([]float64, social.NumInteractionDims)
		vec[0] = c
		inter[(graph.Edge{U: u, V: v}).Key()] = vec
	}
	mk(0, 1, 2)
	mk(0, 2, 1)
	feats := make([][]float64, 4)
	for i := range feats {
		feats[i] = []float64{0}
	}
	labels := map[uint64]social.Label{}
	g.ForEachEdge(func(u, v graph.NodeID) { labels[(graph.Edge{U: u, V: v}).Key()] = social.Family })
	ds := &social.Dataset{G: g, UserFeatures: feats, Interactions: inter, TrueLabels: labels, Revealed: map[uint64]bool{}}
	c := &LocalCommunity{Ego: 3, Members: []graph.NodeID{0, 1, 2}, Tightness: []float64{1, 1, 1}}
	nd := int(social.NumInteractionDims)
	flat := make([]float64, (len(c.Members)+1)*nd)
	interactInto(flat, ds, c)
	rows := [][]float64{flat[:nd], flat[nd : 2*nd], flat[2*nd : 3*nd]}
	if math.Abs(rows[0][0]-1.0) > 1e-12 || math.Abs(rows[1][0]-2.0/3.0) > 1e-12 || math.Abs(rows[2][0]-1.0/3.0) > 1e-12 {
		t.Fatalf("interact features = %v %v %v", rows[0][0], rows[1][0], rows[2][0])
	}
	// All other dims are zero (no division by zero).
	for _, r := range rows {
		for d := 1; d < len(r); d++ {
			if r[d] != 0 {
				t.Fatalf("expected zero feature on dim %d, got %v", d, r[d])
			}
		}
	}
}

func TestFeatureMatrixOrderingAndPadding(t *testing.T) {
	net, err := wechat.Generate(wechat.DefaultConfig(120, 5))
	if err != nil {
		t.Fatal(err)
	}
	egos := Divide(net.Dataset, DivisionConfig{})
	var comm *LocalCommunity
	for _, er := range egos {
		for _, c := range er.Comms {
			if len(c.Members) >= 3 {
				comm = c
				break
			}
		}
		if comm != nil {
			break
		}
	}
	if comm == nil {
		t.Skip("no community of size >= 3")
	}
	k := len(comm.Members) + 4
	m := FeatureMatrix(net.Dataset, comm, k)
	if m.R != k {
		t.Fatalf("matrix rows = %d, want %d", m.R, k)
	}
	// Padding rows all zero.
	for r := len(comm.Members); r < k; r++ {
		for _, v := range m.Data[r*m.C : (r+1)*m.C] {
			if v != 0 {
				t.Fatalf("padding row %d not zero", r)
			}
		}
	}
	// Truncation keeps the highest-tightness members.
	k2 := 2
	m2 := FeatureMatrix(net.Dataset, comm, k2)
	if m2.R != 2 {
		t.Fatalf("truncated rows = %d", m2.R)
	}
}

func TestPooledFeaturesWidthAndValues(t *testing.T) {
	net, err := wechat.Generate(wechat.DefaultConfig(120, 6))
	if err != nil {
		t.Fatal(err)
	}
	egos := Divide(net.Dataset, DivisionConfig{})
	c := egos[0].Comms[0]
	pf := PooledFeatures(net.Dataset, c)
	w := int(social.NumInteractionDims) + net.Dataset.NumFeatureDims()
	if len(pf) != 2*w {
		t.Fatalf("pooled width = %d, want %d", len(pf), 2*w)
	}
	for _, v := range pf {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("pooled feature not finite: %v", pf)
		}
	}
	// Stds are non-negative.
	for _, v := range pf[w:] {
		if v < 0 {
			t.Fatalf("negative std in %v", pf)
		}
	}
}

// runPipeline is the shared end-to-end fixture.
func runPipeline(t *testing.T, clf CommunityClassifier) (eval.Report, *Result) {
	rep, res, _ := runPipelineNet(t, clf)
	return rep, res
}

// runPipelineNet additionally returns the generated network.
func runPipelineNet(t *testing.T, clf CommunityClassifier) (eval.Report, *Result, *wechat.Network) {
	t.Helper()
	net, err := wechat.Generate(wechat.DefaultConfig(500, 77))
	if err != nil {
		t.Fatal(err)
	}
	net.RunSurvey(0.4, 7)
	labeled := net.Dataset.LabeledEdges()
	_, test := eval.Split(labeled, 0.8, 3)
	for _, k := range test {
		net.Dataset.SetRevealed(k, false)
	}
	p := NewPipeline(Config{Classifier: clf, Seed: 11})
	res, err := p.Run(net.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]social.Label, len(test))
	pred := make([]social.Label, len(test))
	for i, k := range test {
		truth[i] = net.Dataset.TrueLabel(k)
		e := graph.EdgeFromKey(k)
		pred[i], _ = res.PredictedLabelOK(e.U, e.V)
	}
	return eval.Evaluate(truth, pred), res, net
}

func TestPipelineCNNEndToEnd(t *testing.T) {
	rep, res := runPipeline(t, &CNNClassifier{K: 12, Filters: 3, Hidden: 12, Epochs: 5, Seed: 1})
	if rep.Overall.F1 < 0.60 {
		t.Fatalf("LoCEC-CNN overall F1 = %.3f, want >= 0.60\n%s", rep.Overall.F1, rep)
	}
	if res.Edges.Len() != 0 && res.Edges.Len() != resEdgeCount(res) {
		t.Fatalf("predictions for %d edges", res.Edges.Len())
	}
	if res.Times.Phase1 <= 0 || res.Times.Phase2 <= 0 || res.Times.Phase3 <= 0 {
		t.Fatalf("phase times not recorded: %+v", res.Times)
	}
}

func resEdgeCount(res *Result) int { return len(res.Edges.ProbsFlat()) / res.Edges.Classes() }

func TestPipelineXGBEndToEnd(t *testing.T) {
	rep, _ := runPipeline(t, &XGBClassifier{Seed: 2})
	if rep.Overall.F1 < 0.60 {
		t.Fatalf("LoCEC-XGB overall F1 = %.3f, want >= 0.60\n%s", rep.Overall.F1, rep)
	}
}

func TestPipelineRequiresLabels(t *testing.T) {
	net, err := wechat.Generate(wechat.DefaultConfig(100, 8))
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(Config{Classifier: &XGBClassifier{}, Seed: 1})
	if _, err := p.Run(net.Dataset); err == nil {
		t.Fatal("expected error with no revealed labels")
	}
}

func TestCommunityTruthLabelMajority(t *testing.T) {
	c := &LocalCommunity{}
	if c.TruthLabel() != social.Unlabeled {
		t.Fatal("empty votes should be Unlabeled")
	}
	c.TruthVotes[social.Family] = 3
	c.TruthVotes[social.Colleague] = 1
	if c.TruthLabel() != social.Family {
		t.Fatalf("majority = %v", c.TruthLabel())
	}
}

func TestEdgeFeatureVectorSymmetric(t *testing.T) {
	net, err := wechat.Generate(wechat.DefaultConfig(150, 9))
	if err != nil {
		t.Fatal(err)
	}
	egos := Divide(net.Dataset, DivisionConfig{})
	// Install dummy results so AppendEdgeFeatures works.
	for _, er := range egos {
		for _, c := range er.Comms {
			c.Probs = []float64{0.2, 0.5, 0.3}
		}
	}
	var u, v graph.NodeID
	found := false
	net.Dataset.G.ForEachEdge(func(a, b graph.NodeID) {
		if !found {
			u, v, found = a, b, true
		}
	})
	if !found {
		t.Skip("no edges")
	}
	f1 := AppendEdgeFeatures(nil, egos, u, v)
	f2 := AppendEdgeFeatures(nil, egos, v, u)
	if len(f1) != len(f2) {
		t.Fatalf("lengths differ: %d vs %d", len(f1), len(f2))
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatal("edge feature depends on endpoint order")
		}
	}
	if len(f1) != 2+3+3 {
		t.Fatalf("feature width = %d, want 8", len(f1))
	}
}
