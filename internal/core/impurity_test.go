package core

import (
	"testing"

	"locec/internal/graph"
	"locec/internal/social"
)

func TestOutliersFlagsLooseMember(t *testing.T) {
	c := &LocalCommunity{
		Members:   []graph.NodeID{1, 2, 3, 4, 5},
		Tightness: []float64{0.9, 0.95, 1.0, 0.85, 0.2},
	}
	out := c.Outliers(0.5)
	if len(out) != 1 || out[0].Member != 5 {
		t.Fatalf("outliers = %+v, want member 5", out)
	}
	if out[0].Gap <= 0 {
		t.Fatalf("gap = %v, want positive", out[0].Gap)
	}
}

func TestOutliersSmallCommunityAndClean(t *testing.T) {
	small := &LocalCommunity{
		Members:   []graph.NodeID{1, 2, 3},
		Tightness: []float64{1, 1, 0.1},
	}
	if out := small.Outliers(0.5); out != nil {
		t.Fatalf("small community flagged: %+v", out)
	}
	clean := &LocalCommunity{
		Members:   []graph.NodeID{1, 2, 3, 4},
		Tightness: []float64{0.9, 0.92, 0.88, 0.91},
	}
	if out := clean.Outliers(0.5); len(out) != 0 {
		t.Fatalf("clean community flagged: %+v", out)
	}
}

func TestOutliersDefaultRatio(t *testing.T) {
	c := &LocalCommunity{
		Members:   []graph.NodeID{1, 2, 3, 4},
		Tightness: []float64{1, 1, 1, 0.1},
	}
	if out := c.Outliers(0); len(out) != 1 {
		t.Fatalf("default ratio failed: %+v", out)
	}
}

func TestMultiLabel(t *testing.T) {
	es, err := NewEdgeStore(
		[]uint64{(graph.Edge{U: 1, V: 2}).Key()},
		[]social.Label{social.Colleague},
		[]float64{0.50, 0.38, 0.12}, 3)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Edges: es}
	ls := res.MultiLabel(1, 2, 0.3)
	if len(ls) != 2 {
		t.Fatalf("labels = %+v, want 2", ls)
	}
	if ls[0].Label != social.Colleague || ls[1].Label != social.Family {
		t.Fatalf("wrong order: %+v", ls)
	}
	if ls[0].Score < ls[1].Score {
		t.Fatal("not sorted by score")
	}
	// High threshold -> principal type only.
	if ls := res.MultiLabel(1, 2, 0.45); len(ls) != 1 || ls[0].Label != social.Colleague {
		t.Fatalf("principal-type degeneration failed: %+v", ls)
	}
	// Missing edge -> nil.
	if ls := res.MultiLabel(3, 4, 0.1); ls != nil {
		t.Fatalf("missing edge returned %+v", ls)
	}
}

func TestImpurityOnGeneratedNetwork(t *testing.T) {
	// The generator plants impure circles (CircleNoise); flagged members
	// should disproportionately hold a different true type than the
	// community majority.
	_, res, net := runPipelineNet(t, &XGBClassifier{Seed: 3})
	flaggedMismatch, flaggedTotal := 0, 0
	cleanMismatch, cleanTotal := 0, 0
	for _, er := range res.Egos {
		for _, c := range er.Comms {
			truth := c.TruthLabel()
			if !truth.Valid() || len(c.Members) < 4 {
				continue
			}
			outliers := map[graph.NodeID]bool{}
			for _, o := range c.Outliers(0.5) {
				outliers[o.Member] = true
			}
			for _, m := range c.Members {
				k := (graph.Edge{U: c.Ego, V: m}).Key()
				l, ok := net.Dataset.LookupTrueLabel(k)
				if !ok || !l.Valid() {
					continue
				}
				mismatch := l != truth
				if outliers[m] {
					flaggedTotal++
					if mismatch {
						flaggedMismatch++
					}
				} else {
					cleanTotal++
					if mismatch {
						cleanMismatch++
					}
				}
			}
		}
	}
	if flaggedTotal == 0 || cleanTotal == 0 {
		t.Skip("no flagged members in this draw")
	}
	flaggedRate := float64(flaggedMismatch) / float64(flaggedTotal)
	cleanRate := float64(cleanMismatch) / float64(cleanTotal)
	if flaggedRate <= cleanRate {
		t.Fatalf("outlier flag uninformative: flagged mismatch %.3f <= clean %.3f (n=%d/%d)",
			flaggedRate, cleanRate, flaggedTotal, cleanTotal)
	}
}
