package gbdt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// blobs3 generates a 3-class Gaussian blob problem.
func blobs3(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := [][]float64{{0, 0, 0}, {3, 3, 0}, {0, 3, 3}}
	X := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(3)
		row := make([]float64, 3)
		for d := 0; d < 3; d++ {
			row[d] = centers[c][d] + rng.NormFloat64()*0.6
		}
		X[i] = row
		y[i] = c
	}
	return X, y
}

func TestTrainValidation(t *testing.T) {
	X := [][]float64{{1, 2}, {3, 4}}
	if _, err := Train(X, []int{0, 1}, Config{Classes: 1}); err == nil {
		t.Fatal("Classes=1 accepted")
	}
	if _, err := Train(nil, nil, Config{Classes: 2}); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := Train(X, []int{0, 5}, Config{Classes: 2}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, []int{0, 1}, Config{Classes: 2}); err == nil {
		t.Fatal("ragged rows accepted")
	}
}

func TestLearnsBlobs(t *testing.T) {
	X, y := blobs3(300, 1)
	m, err := Train(X, y, Config{Classes: 3, Rounds: 20, MaxDepth: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range X {
		if m.Predict(X[i]) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.95 {
		t.Fatalf("training accuracy = %.3f, want >= 0.95", acc)
	}
	// Held-out accuracy on fresh draws from the same distribution.
	Xt, yt := blobs3(150, 99)
	correct = 0
	for i := range Xt {
		if m.Predict(Xt[i]) == yt[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(Xt)); acc < 0.9 {
		t.Fatalf("test accuracy = %.3f, want >= 0.9", acc)
	}
}

func TestPredictProbaValid(t *testing.T) {
	X, y := blobs3(150, 3)
	m, err := Train(X, y, Config{Classes: 3, Rounds: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range X[:20] {
		p := m.PredictProba(x)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("invalid probability %v", p)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probs sum %v", sum)
		}
	}
}

func TestXorNeedsDepth(t *testing.T) {
	// XOR is not linearly separable; a depth>=2 tree ensemble must solve it.
	// Perfectly symmetric XOR has zero gain for every first split (a known
	// property of greedy axis-aligned trees), so we train on noisy samples —
	// as real data always is — and verify the clean corners.
	rng := rand.New(rand.NewSource(5))
	var Xr [][]float64
	var yr []int
	for rep := 0; rep < 60; rep++ {
		a, b := rng.Intn(2), rng.Intn(2)
		Xr = append(Xr, []float64{float64(a) + rng.NormFloat64()*0.08, float64(b) + rng.NormFloat64()*0.08})
		yr = append(yr, a^b)
	}
	m, err := Train(Xr, yr, Config{Classes: 2, Rounds: 25, MaxDepth: 3, LearningRate: 0.4, Subsample: 0.8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	X := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	y := []int{0, 1, 1, 0}
	for i := range X {
		if m.Predict(X[i]) != y[i] {
			t.Fatalf("XOR misclassified at %v", X[i])
		}
	}
}

func TestForestShape(t *testing.T) {
	X, y := blobs3(100, 6)
	m, err := Train(X, y, Config{Classes: 3, Rounds: 7, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m.forest.Roots); n != 7*3 {
		t.Fatalf("%d trees, want %d", n, 7*3)
	}
	if m.features != 3 {
		t.Fatalf("features = %d", m.features)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	X, y := blobs3(120, 8)
	m1, err := Train(X, y, Config{Classes: 3, Rounds: 6, Subsample: 0.8, ColSample: 0.8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(X, y, Config{Classes: 3, Rounds: 6, Subsample: 0.8, ColSample: 0.8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range X {
		a, b := m1.Margins(x), m2.Margins(x)
		for c := range a {
			if a[c] != b[c] {
				t.Fatal("same seed produced different models")
			}
		}
	}
}

func TestConstantFeaturesProduceNoSplit(t *testing.T) {
	// All-identical rows: the model must degrade to priors, not crash.
	X := make([][]float64, 40)
	y := make([]int, 40)
	for i := range X {
		X[i] = []float64{1, 1, 1}
		y[i] = i % 2
	}
	m, err := Train(X, y, Config{Classes: 2, Rounds: 5, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	p := m.PredictProba([]float64{1, 1, 1})
	if math.Abs(p[0]-0.5) > 0.05 {
		t.Fatalf("uniform data should give ~0.5 prob, got %v", p)
	}
}

func TestMarginsFiniteProperty(t *testing.T) {
	X, y := blobs3(80, 11)
	m, err := Train(X, y, Config{Classes: 3, Rounds: 10, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Max(-1e6, math.Min(1e6, v))
		}
		ms := m.Margins([]float64{clamp(a), clamp(b), clamp(c)})
		for _, v := range ms {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
