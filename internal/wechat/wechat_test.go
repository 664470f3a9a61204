package wechat

import (
	"testing"

	"locec/internal/graph"
	"locec/internal/social"
)

func genTest(t *testing.T, n int, seed int64) *Network {
	t.Helper()
	net, err := Generate(DefaultConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestGenerateValidates(t *testing.T) {
	net := genTest(t, 600, 1)
	if err := net.Dataset.Validate(); err != nil {
		t.Fatal(err)
	}
	if net.Dataset.G.NumNodes() != 600 {
		t.Fatalf("nodes = %d", net.Dataset.G.NumNodes())
	}
	if net.Dataset.G.NumEdges() < 600 {
		t.Fatalf("suspiciously few edges: %d", net.Dataset.G.NumEdges())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genTest(t, 300, 7)
	b := genTest(t, 300, 7)
	if a.Dataset.G.NumEdges() != b.Dataset.G.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.Dataset.G.NumEdges(), b.Dataset.G.NumEdges())
	}
	for k, l := range a.Dataset.TrueLabels {
		if b.Dataset.TrueLabels[k] != l {
			t.Fatalf("labels differ at %v", graph.EdgeFromKey(k))
		}
	}
	for k, c := range a.Dataset.Interactions {
		bc, ok := b.Dataset.Interactions[k]
		if !ok {
			t.Fatalf("interaction missing in second run at %v", graph.EdgeFromKey(k))
		}
		for d := range c {
			if c[d] != bc[d] {
				t.Fatalf("interaction differs at %v dim %d", graph.EdgeFromKey(k), d)
			}
		}
	}
}

func TestGenerateTooSmall(t *testing.T) {
	if _, err := Generate(DefaultConfig(5, 1)); err == nil {
		t.Fatal("tiny population accepted")
	}
}

func TestLabelMixMatchesCalibration(t *testing.T) {
	// Fig. 13(b)-style network mix: colleagues most, then family, then
	// schoolmates; Others a small minority.
	net := genTest(t, 1500, 2)
	var dist [4]int // Colleague, Family, Schoolmate, Other
	for _, l := range net.Dataset.AllTrueLabels() {
		dist[l]++
	}
	total := 0
	for _, c := range dist {
		total += c
	}
	frac := func(i int) float64 { return float64(dist[i]) / float64(total) }
	colleague, family, school, other := frac(int(social.Colleague)), frac(int(social.Family)), frac(int(social.Schoolmate)), frac(3)
	if !(colleague > family && family > school) {
		t.Fatalf("mix ordering wrong: C=%.2f F=%.2f S=%.2f O=%.2f", colleague, family, school, other)
	}
	if school < 0.05 || other > 0.30 {
		t.Fatalf("mix out of calibration: C=%.2f F=%.2f S=%.2f O=%.2f", colleague, family, school, other)
	}
}

func TestInteractionSparsity(t *testing.T) {
	// Paper: ~60% of pairs have no interactions over a month. Our default
	// dormancy plus per-dim draws should leave a large zero fraction.
	net := genTest(t, 1000, 3)
	m := net.Dataset.G.NumEdges()
	interacting := len(net.Dataset.Interactions)
	zeroFrac := 1 - float64(interacting)/float64(m)
	if zeroFrac < 0.30 || zeroFrac > 0.75 {
		t.Fatalf("zero-interaction fraction = %.2f, want in [0.30, 0.75]", zeroFrac)
	}
}

// typedInteractionRate computes the fraction of pairs of class l with at
// least one interaction on dim.
func typedInteractionRate(net *Network, l social.Label, dim social.InteractionDim) float64 {
	have, total := 0, 0
	for k, lbl := range net.Dataset.TrueLabels {
		if lbl != l {
			continue
		}
		total++
		if c, ok := net.Dataset.Interactions[k]; ok && c[dim] > 0 {
			have++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(have) / float64(total)
}

func TestFig3Shapes(t *testing.T) {
	net := genTest(t, 2000, 4)
	// Every class likes pictures more than articles and games.
	for _, l := range []social.Label{social.Colleague, social.Family, social.Schoolmate} {
		pic := typedInteractionRate(net, l, social.DimLikePicture)
		art := typedInteractionRate(net, l, social.DimLikeArticle)
		game := typedInteractionRate(net, l, social.DimLikeGame)
		if !(pic > art && pic > game) {
			t.Fatalf("%v: pictures not dominant (pic=%.2f art=%.2f game=%.2f)", l, pic, art, game)
		}
	}
	// Colleagues and schoolmates like articles more than family members.
	famArt := typedInteractionRate(net, social.Family, social.DimLikeArticle)
	if typedInteractionRate(net, social.Colleague, social.DimLikeArticle) <= famArt {
		t.Fatal("colleagues should like articles more than family")
	}
	if typedInteractionRate(net, social.Schoolmate, social.DimLikeArticle) <= famArt {
		t.Fatal("schoolmates should like articles more than family")
	}
	// Schoolmates have the highest game like and comment rates.
	for _, dim := range []social.InteractionDim{social.DimLikeGame, social.DimCommentGame} {
		s := typedInteractionRate(net, social.Schoolmate, dim)
		c := typedInteractionRate(net, social.Colleague, dim)
		f := typedInteractionRate(net, social.Family, dim)
		if !(s > c && s > f) {
			t.Fatalf("schoolmates should lead on dimension %d (S=%.2f C=%.2f F=%.2f)", dim, s, c, f)
		}
	}
	// Colleagues comment on articles notably more than family.
	if typedInteractionRate(net, social.Colleague, social.DimCommentArticle) <=
		typedInteractionRate(net, social.Family, social.DimCommentArticle) {
		t.Fatal("colleagues should comment on articles more than family")
	}
}

func TestFig2CommonGroupShapes(t *testing.T) {
	net := genTest(t, 2000, 5)
	counts := func(l social.Label) (zero, atMostOne, atLeastTwo, total int) {
		for k, lbl := range net.Dataset.TrueLabels {
			if lbl != l {
				continue
			}
			total++
			c := net.CommonGroups[k]
			if c == 0 {
				zero++
			}
			if c <= 1 {
				atMostOne++
			}
			if c >= 2 {
				atLeastTwo++
			}
		}
		return
	}
	fz, fo, _, ft := counts(social.Family)
	_, _, s2, st := counts(social.Schoolmate)
	_, co, _, ct := counts(social.Colleague)
	// >30% of family pairs share no groups; most (>70%) share at most one.
	if frac := float64(fz) / float64(ft); frac < 0.25 {
		t.Fatalf("family zero-group fraction = %.2f, want >= 0.25", frac)
	}
	if frac := float64(fo) / float64(ft); frac < 0.70 {
		t.Fatalf("family <=1 group fraction = %.2f, want >= 0.70", frac)
	}
	// A sizable share of schoolmates share >= 2 groups.
	if frac := float64(s2) / float64(st); frac < 0.10 {
		t.Fatalf("schoolmate >=2 groups fraction = %.2f, want >= 0.10", frac)
	}
	// Colleagues share the most groups: their <=1 fraction is the lowest.
	if float64(co)/float64(ct) >= float64(fo)/float64(ft) {
		t.Fatal("colleagues should share more groups than family")
	}
}

func TestSurveyRevealsTargetFraction(t *testing.T) {
	net := genTest(t, 800, 6)
	records := net.RunSurvey(0.4, 9)
	m := net.Dataset.G.NumEdges()
	got := float64(len(net.Dataset.Revealed)) / float64(m)
	if got < 0.38 || got > 0.45 {
		t.Fatalf("revealed fraction = %.3f, want ~0.40", got)
	}
	if len(records) != len(net.Dataset.Revealed) {
		t.Fatalf("%d records for %d revealed edges", len(records), len(net.Dataset.Revealed))
	}
	// Records carry valid first categories.
	for _, r := range records[:50] {
		if !r.First.ValidGroundTruth() {
			t.Fatalf("record with invalid first category: %+v", r)
		}
	}
}

func TestSubsampleRevealed(t *testing.T) {
	net := genTest(t, 500, 8)
	net.RunSurvey(0.4, 1)
	before := len(net.Dataset.Revealed)
	dropped := net.SubsampleRevealed(0.25, 2)
	after := len(net.Dataset.Revealed)
	if after+len(dropped) != before {
		t.Fatalf("reveal accounting broken: %d + %d != %d", after, len(dropped), before)
	}
	frac := float64(after) / float64(before)
	if frac < 0.18 || frac > 0.32 {
		t.Fatalf("kept fraction = %.2f, want ~0.25", frac)
	}
}

func TestGroupsHaveValidMembers(t *testing.T) {
	net := genTest(t, 400, 10)
	n := graph.NodeID(net.Dataset.G.NumNodes())
	named := 0
	for _, g := range net.Groups {
		if len(g.Members) < 3 {
			t.Fatalf("group with %d members", len(g.Members))
		}
		for _, m := range g.Members {
			if m >= n {
				t.Fatalf("group member %d out of range", m)
			}
		}
		if g.Name != "" {
			named++
		}
	}
	if len(net.Groups) == 0 || named == 0 {
		t.Fatalf("expected some groups (%d) and some named (%d)", len(net.Groups), named)
	}
}

func TestClusteringCoefficientRealistic(t *testing.T) {
	// Triadic closure should push the mean clustering coefficient into
	// the range real social networks exhibit (~0.1–0.4); an Erdős–Rényi
	// graph of the same density would sit near deg/n ≈ 0.03.
	net := genTest(t, 700, 19)
	cc := net.Dataset.G.MeanClusteringCoefficient()
	if cc < 0.10 || cc > 0.50 {
		t.Fatalf("mean clustering coefficient %.3f outside social-network range", cc)
	}
}

func TestEgoNetworksHaveCommunityStructure(t *testing.T) {
	// The generator's whole point: ego networks should contain multiple
	// same-type clusters. Spot-check that an average user's ego network
	// has a decent number of members and that same-circle members connect
	// more than cross-circle ones.
	net := genTest(t, 600, 11)
	g := net.Dataset.G
	degSum := 0
	for u := 0; u < g.NumNodes(); u++ {
		degSum += g.Degree(graph.NodeID(u))
	}
	avgDeg := float64(degSum) / float64(g.NumNodes())
	if avgDeg < 8 || avgDeg > 40 {
		t.Fatalf("average degree = %.1f, want ego networks of useful size", avgDeg)
	}
	// Same-label neighbor pairs should share an edge more often than
	// different-label pairs (homophily inside ego networks).
	same, sameHit, diff, diffHit := 0, 0, 0, 0
	for u := 0; u < 200; u++ {
		ns := g.Neighbors(graph.NodeID(u))
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				ki := (graph.Edge{U: graph.NodeID(u), V: ns[i]}).Key()
				kj := (graph.Edge{U: graph.NodeID(u), V: ns[j]}).Key()
				li, lj := net.Dataset.TrueLabels[ki], net.Dataset.TrueLabels[kj]
				connected := g.HasEdge(ns[i], ns[j])
				if li == lj {
					same++
					if connected {
						sameHit++
					}
				} else {
					diff++
					if connected {
						diffHit++
					}
				}
			}
		}
	}
	if same == 0 || diff == 0 {
		t.Skip("degenerate sample")
	}
	sameRate := float64(sameHit) / float64(same)
	diffRate := float64(diffHit) / float64(diff)
	if sameRate <= diffRate*2 {
		t.Fatalf("homophily too weak: same=%.3f diff=%.3f", sameRate, diffRate)
	}
}
