package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"locec/internal/social"
	"locec/internal/tensor"
	"locec/internal/wechat"
)

// interactFeaturesReference and pooledFeaturesReference are the feature
// builders as they stood before the flat-scratch rewrite (a slice per
// member, a row copy per member): the statements interactInto and
// PooledFeatures must stay == to, because the GBDT's training matrix — and
// with it every tree — is made of these values.
func interactFeaturesReference(ds *social.Dataset, c *LocalCommunity) [][]float64 {
	nd := int(social.NumInteractionDims)
	rows := make([][]float64, len(c.Members))
	for i := range rows {
		rows[i] = make([]float64, nd)
	}
	totals := make([]float64, nd)
	for i := 0; i < len(c.Members); i++ {
		for j := i + 1; j < len(c.Members); j++ {
			iv := ds.InteractionVector(c.Members[i], c.Members[j])
			for d := 0; d < nd; d++ {
				v := iv[d]
				if v == 0 {
					continue
				}
				rows[i][d] += v
				rows[j][d] += v
				totals[d] += v
			}
		}
	}
	for d := 0; d < nd; d++ {
		if totals[d] == 0 {
			continue
		}
		for i := range rows {
			rows[i][d] /= totals[d]
		}
	}
	return rows
}

func pooledFeaturesReference(ds *social.Dataset, c *LocalCommunity) []float64 {
	nd := int(social.NumInteractionDims)
	nf := ds.NumFeatureDims()
	w := nd + nf
	mean := make([]float64, w)
	m2 := make([]float64, w)
	inter := interactFeaturesReference(ds, c)
	n := float64(len(c.Members))
	row := make([]float64, w)
	for i, u := range c.Members {
		copy(row[:nd], inter[i])
		copy(row[nd:], ds.UserFeatures[u])
		for d := 0; d < w; d++ {
			mean[d] += row[d]
			m2[d] += row[d] * row[d]
		}
	}
	out := make([]float64, 2*w)
	for d := 0; d < w; d++ {
		mu := mean[d] / n
		out[d] = mu
		variance := m2[d]/n - mu*mu
		if variance < 0 {
			variance = 0
		}
		out[w+d] = math.Sqrt(variance)
	}
	return out
}

// featureFixture divides an n = 300 network and returns its dataset, a
// copy of it in which nobody ever interacted (every community all-dormant)
// and every local community.
func featureFixture(t *testing.T) (ds, dormant *social.Dataset, comms []*LocalCommunity) {
	t.Helper()
	net, err := wechat.Generate(wechat.DefaultConfig(300, 21))
	if err != nil {
		t.Fatal(err)
	}
	net.RunSurvey(0.4, 22)
	ds = net.Dataset
	for _, er := range Divide(ds, DivisionConfig{Detector: DetectorLabelProp, Seed: 1}) {
		comms = append(comms, er.Comms...)
	}
	quiet := *ds
	quiet.Interactions = map[uint64][]float64{}
	return ds, &quiet, comms
}

// TestFeaturesMatchReference: on every community of the division —
// singletons and all-dormant ones included — the flat-scratch builders
// return exactly the values of the old statements, from one pooler reused
// across communities of every size (a stale scratch would show here), and
// from one sized for them all up front.
func TestFeaturesMatchReference(t *testing.T) {
	ds, dormant, comms := featureFixture(t)
	singletons := 0
	var p pooler
	sized := newPooler(ds, comms)
	for _, d := range []*social.Dataset{ds, dormant} {
		for i, c := range comms {
			if len(c.Members) == 1 {
				singletons++
			}
			nd := int(social.NumInteractionDims)
			got := make([]float64, (len(c.Members)+1)*nd)
			interactInto(got, d, c)
			for r, want := range interactFeaturesReference(d, c) {
				if !slices.Equal(got[r*nd:(r+1)*nd], want) {
					t.Fatalf("community %d (ego %d) member %d: interact features %v, want %v", i, c.Ego, r, got[r*nd:(r+1)*nd], want)
				}
			}
			wantP := pooledFeaturesReference(d, c)
			if got := p.features(d, c); !slices.Equal(got, wantP) {
				t.Fatalf("community %d (ego %d, %d members): pooled features %v, want %v", i, c.Ego, len(c.Members), got, wantP)
			}
			if got := sized.features(d, c); !slices.Equal(got, wantP) {
				t.Fatalf("community %d: sized pooler %v, want %v", i, got, wantP)
			}
			if got := PooledFeatures(d, c); !slices.Equal(got, wantP) {
				t.Fatalf("community %d: PooledFeatures %v, want %v", i, got, wantP)
			}
		}
	}
	if singletons == 0 {
		t.Fatal("division has no singleton community: fixture does not cover them")
	}
}

// TestPoolerAllocatesNothing pins the block form Fit and Classify call: a
// pooler made for a block pools every community of it without allocating,
// the vector it returns included, and a zero pooler stops allocating once
// its scratch has grown to the largest community.
func TestPoolerAllocatesNothing(t *testing.T) {
	ds, _, comms := featureFixture(t)
	sized := newPooler(ds, comms)
	var grown pooler
	for _, c := range comms {
		grown.features(ds, c)
	}
	for name, p := range map[string]*pooler{"newPooler": &sized, "grown": &grown} {
		perRun := testing.AllocsPerRun(5, func() {
			for _, c := range comms {
				p.features(ds, c)
			}
		})
		if perRun != 0 {
			t.Fatalf("%s: %v allocations for %d communities, want none", name, perRun, len(comms))
		}
	}
}

// TestXGBClassifyOneWalkMatchesModel: the one-walk Classify must hand every
// community exactly what the model's own entry points return from two
// walks — Probs == PredictProba, Result == LeafValues.
func TestXGBClassifyOneWalkMatchesModel(t *testing.T) {
	ds, _, comms := featureFixture(t)
	var train []*LocalCommunity
	var labels []social.Label
	for _, c := range comms {
		if l := c.TruthLabel(); l.Valid() {
			train, labels = append(train, c), append(labels, l)
		}
	}
	clf := &XGBClassifier{Seed: 1}
	if err := clf.Fit(ds, train, labels); err != nil {
		t.Fatal(err)
	}
	clf.Classify(ds, comms)
	for i, c := range comms {
		x := pooledFeaturesReference(ds, c)
		if want := clf.model.PredictProba(x); !slices.Equal(c.Probs, want) {
			t.Fatalf("community %d: Probs %v, PredictProba %v", i, c.Probs, want)
		}
		if want := clf.model.LeafValues(x); !slices.Equal(c.Result, want) {
			t.Fatalf("community %d: Result differs from LeafValues", i)
		}
	}
}

// tightnessOrderReference, shuffledOrderReference and
// matrixInOrderReference are the feature-matrix statements as they stood
// before the per-worker scratch (sort.Slice, an order, an interaction row
// set and a matrix per call): what FeatureMatrix and CNNClassifier's
// slabs, in either order, must stay == to, because every CommCNN input
// is made of these values.
func tightnessOrderReference(c *LocalCommunity) []int {
	order := make([]int, len(c.Members))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if c.Tightness[order[a]] != c.Tightness[order[b]] {
			return c.Tightness[order[a]] > c.Tightness[order[b]]
		}
		return c.Members[order[a]] < c.Members[order[b]]
	})
	return order
}

func shuffledOrderReference(c *LocalCommunity, seed int64) []int {
	order := make([]int, len(c.Members))
	for i := range order {
		order[i] = i
	}
	s := uint64(seed) ^ (uint64(c.Ego)+1)*0x9e3779b97f4a7c15
	if len(c.Members) > 0 {
		s ^= uint64(c.Members[0]) << 32
	}
	for i := len(order) - 1; i > 0; i-- {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		j := int(s % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order
}

func matrixInOrderReference(ds *social.Dataset, c *LocalCommunity, k int, order []int) *tensor.Matrix {
	nd := int(social.NumInteractionDims)
	m := tensor.NewMatrix(k, nd+ds.NumFeatureDims())
	inter := interactFeaturesReference(ds, c)
	for r := 0; r < min(len(order), k); r++ {
		i := order[r]
		row := m.Data[r*m.C : (r+1)*m.C]
		copy(row[:nd], inter[i])
		copy(row[nd:], ds.UserFeatures[c.Members[i]])
	}
	return m
}

// TestFeatureMatrixMatchesReference: on every community of the division,
// all-dormant ones included, truncated (k = 3) and padded (k = 20), both
// orders give exactly the old statements' matrix — through FeatureMatrix
// (tightness order), and through one scratch reused across communities of every
// size filling a destination full of garbage (stale scratch or a missed
// clear would show here).
func TestFeatureMatrixMatchesReference(t *testing.T) {
	ds, dormant, comms := featureFixture(t)
	var s matrixScratch
	for _, d := range []*social.Dataset{ds, dormant} {
		for _, k := range []int{3, 20} {
			dst := make([]float64, k*matrixWidth(d))
			for i, c := range comms {
				byTightness := matrixInOrderReference(d, c, k, tightnessOrderReference(c))
				if got := FeatureMatrix(d, c, k); !slices.Equal(got.Data, byTightness.Data) || got.R != k {
					t.Fatalf("community %d (%d members), k = %d: FeatureMatrix %v, want %v", i, len(c.Members), k, got.Data, byTightness.Data)
				}
				for _, tc := range []struct {
					name    string
					want    *tensor.Matrix
					shuffle bool
				}{
					{"by tightness", byTightness, false},
					{"shuffled", matrixInOrderReference(d, c, k, shuffledOrderReference(c, 7)), true},
				} {
					for j := range dst {
						dst[j] = math.NaN()
					}
					s.fill(dst, d, c, k, tc.shuffle, 7)
					if !slices.Equal(dst, tc.want.Data) {
						t.Fatalf("community %d, k = %d, %s: reused scratch filled %v, want %v", i, k, tc.name, dst, tc.want.Data)
					}
				}
			}
		}
	}
}
