package logreg

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"locec/internal/tensor"
	"locec/internal/testutil"
)

func blobs(n, classes int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(classes)
		row := make([]float64, classes)
		for d := range row {
			row[d] = rng.NormFloat64() * 0.4
		}
		row[c] += 2.5
		X[i] = row
		y[i] = c
	}
	return X, y
}

func TestValidation(t *testing.T) {
	if _, err := Train(nil, nil, Config{Classes: 2}); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := Train([][]float64{{1}}, []int{0}, Config{Classes: 1}); err == nil {
		t.Fatal("Classes=1 accepted")
	}
	if _, err := Train([][]float64{{1}}, []int{3}, Config{Classes: 2}); err == nil {
		t.Fatal("bad label accepted")
	}
}

// TestValidationHostileRows: a ragged row would be silently truncated or
// zero-padded by the flattening, and one non-finite feature poisons its
// column's mean and every weight after it. Both are refused with the
// offending row (and column).
func TestValidationHostileRows(t *testing.T) {
	huge := math.MaxFloat64
	cases := []struct {
		name string
		bad  []float64 // replaces row 2 of a clean 4×3 set
		want string
	}{
		{"short row", []float64{1, 2}, "row 2 has 2 features"},
		{"long row", []float64{1, 2, 3, 4}, "row 2 has 4 features"},
		{"NaN", []float64{1, math.NaN(), 3}, "row 2, column 1"},
		{"+Inf", []float64{math.Inf(1), 2, 3}, "row 2, column 0"},
		{"-Inf", []float64{1, 2, math.Inf(-1)}, "row 2, column 2"},
		{"finite but overflowing", []float64{1, 2, huge}, "column 2 overflows"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			X := [][]float64{{0, 1, 2}, {1, 0, 1}, tc.bad, {2, 2, 0}}
			y := []int{0, 1, 0, 1}
			for name, train := range map[string]func([][]float64, []int, Config) (*Model, error){
				"Train": Train, "trainReference": trainReference,
			} {
				_, err := train(X, y, Config{Classes: 2})
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: error %v, want one naming %q", name, err, tc.want)
				}
			}
		})
	}
}

// TestTrainRowsRejects: the flat entry point refuses rows that do not cut
// into len(y) bias-first rows with at least one feature, a bias slot that
// is not 1, and what validate refuses in Train's rows, naming the row or
// column.
func TestTrainRowsRejects(t *testing.T) {
	clean := func() []float64 { return []float64{1, 0, 1, 1, 1, 0, 1, 2, 2, 1, 3, 1} } // 4 rows of [1, x0, x1]
	y := []int{0, 1, 0, 1}
	cases := []struct {
		name string
		rows func() []float64
		y    []int
		want string
	}{
		{"not n·width", func() []float64 { return clean()[:11] }, y, "11 values, 4 labels"},
		{"no feature", func() []float64 { return []float64{1, 1, 1, 1} }, y, "rows 1 wide hold no feature"},
		{"no labels", clean, nil, "12 values, 0 labels"},
		{"bias slot", func() []float64 { r := clean(); r[6] = 0; return r }, y, "bias slot 0 at row 2"},
		{"shifted row", func() []float64 { return append(clean()[1:], 1) }, y, "bias slot 0 at row 0"},
		{"NaN", func() []float64 { r := clean(); r[8] = math.NaN(); return r }, y, "row 2, column 1"},
		{"Inf", func() []float64 { r := clean(); r[10] = math.Inf(1); return r }, y, "row 3, column 0"},
		{"overflow", func() []float64 { r := clean(); r[11] = math.MaxFloat64; return r }, y, "column 1 overflows"},
		{"label", clean, []int{0, 1, 2, 1}, "label 2 out of range at row 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := TrainRows(tc.rows(), tc.y, Config{Classes: 2})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one naming %q", err, tc.want)
			}
		})
	}
	if _, err := TrainRows(clean(), y, Config{Classes: 2, Epochs: 2}); err != nil {
		t.Fatalf("clean rows refused: %v", err)
	}
}

// TestTrainRowsMatchesTrainAndReference: one solver path — the flat entry
// point, the [][]float64 adapter and the scalar oracle fit the same
// weights (==) and stop at the same epoch on the fixtures of this package.
func TestTrainRowsMatchesTrainAndReference(t *testing.T) {
	cases := []struct {
		name string
		gen  func(n, nf, classes int, seed int64) ([][]float64, []int)
		n    int
		nf   int
		cfg  Config
	}{
		{"dense", denseRows, 257, 18, Config{Classes: 3, Epochs: 7, Seed: 1}},
		{"dense-held-out", denseRows, 640, 12, Config{Classes: 3, BatchSize: 20, Seed: 9}},
		{"teacher", teacherRows, 450, 10, Config{Classes: 3, Epochs: 4, Seed: 10}},
		{"teacher-four-classes", teacherRows, 128, 11, Config{Classes: 4, BatchSize: 16, L2: 1e-4, Seed: 4}},
		{"blobs", func(n, _, classes int, seed int64) ([][]float64, []int) { return blobs(n, classes, seed) }, 240, 0, Config{Classes: 3, Epochs: 60, LR: 0.3, Seed: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			X, y := tc.gen(tc.n, tc.nf, tc.cfg.Classes, tc.cfg.Seed+100)
			fw := len(X[0]) + 1
			rows := make([]float64, len(X)*fw)
			for i, x := range X {
				rows[i*fw] = 1
				copy(rows[i*fw+1:], x)
			}
			flat, err := TrainRows(rows, y, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, train := range map[string]func([][]float64, []int, Config) (*Model, error){
				"Train": Train, "trainReference": trainReference,
			} {
				m, err := train(X, y, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if m.EpochsRun != flat.EpochsRun || !slices.Equal(m.W, flat.W) {
					t.Fatalf("%s: %d epochs, TrainRows %d; weights equal: %v", name, m.EpochsRun, flat.EpochsRun, slices.Equal(m.W, flat.W))
				}
			}
		})
	}
}

func TestLearnsSeparableBlobs(t *testing.T) {
	X, y := blobs(240, 3, 1)
	m, err := Train(X, y, Config{Classes: 3, Epochs: 60, LR: 0.3, Seed: 2})
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
		t.Fatalf("accuracy = %.3f, want >= 0.95", acc)
	}
}

func TestLossDecreases(t *testing.T) {
	X, y := blobs(150, 3, 3)
	short, err := Train(X, y, Config{Classes: 3, Epochs: 2, LR: 0.1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	long, err := Train(X, y, Config{Classes: 3, Epochs: 80, LR: 0.1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Mean cross-entropy of the fitted probabilities.
	logLoss := func(m *Model) float64 {
		total := 0.0
		for i, x := range X {
			total -= math.Log(math.Max(m.PredictProba(x)[y[i]], 1e-12))
		}
		return total / float64(len(X))
	}
	if l, s := logLoss(long), logLoss(short); l >= s {
		t.Fatalf("more epochs did not reduce loss: %.4f vs %.4f", l, s)
	}
}

func TestProbabilitiesValidProperty(t *testing.T) {
	X, y := blobs(100, 3, 5)
	m, err := Train(X, y, Config{Classes: 3, Epochs: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Max(-100, math.Min(100, v))
		}
		p := m.PredictProba([]float64{clamp(a), clamp(b), clamp(c)})
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministic: Train is a serial function of (X, y, cfg) — the same
// seed gives the same weights and the same stop, at any scheduler width.
// The set is large enough to hold rows out.
func TestDeterministic(t *testing.T) {
	X, y := blobs(600, 3, 7)
	cfg := Config{Classes: 3, Seed: 8}
	m1, _ := Train(X, y, cfg)
	m2, _ := Train(X, y, cfg)
	testutil.SetProcs(t, 1)
	m3, _ := Train(X, y, cfg)
	for _, m := range []*Model{m2, m3} {
		if m.EpochsRun != m1.EpochsRun {
			t.Fatalf("same seed ran %d epochs, then %d", m1.EpochsRun, m.EpochsRun)
		}
		for i := range m1.W {
			if m1.W[i] != m.W[i] {
				t.Fatal("same seed produced different weights")
			}
		}
	}
}

// TestStopsOnUnlearnableLabels: with labels independent of the features
// no epoch scores better on the hold-out than the untrained model the fit
// starts from, so it ends once the patience is spent instead of counting
// to the cap.
func TestStopsOnUnlearnableLabels(t *testing.T) {
	X, y := denseRows(3000, 60, 3, 21)
	m, err := Train(X, y, Config{Classes: 3, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if m.EpochsRun < 1 || m.EpochsRun > stopPatience+1 {
		t.Fatalf("ran %d epochs on noise, want at most patience+1 = %d", m.EpochsRun, stopPatience+1)
	}
}

// TestSmallSetRunsToCap: 40 rows cannot spare a hold-out, so nothing can
// stop the fit before Config.Epochs — on the same noise that stops a
// larger set at once.
func TestSmallSetRunsToCap(t *testing.T) {
	X, y := denseRows(40, 5, 3, 23)
	m, err := Train(X, y, Config{Classes: 3, Epochs: 9, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	if m.EpochsRun != 9 {
		t.Fatalf("ran %d epochs, want the cap of 9", m.EpochsRun)
	}
}

// TestDegenerateColumnsAndHoldOut: a constant column has no variance to
// divide by and a hold-out of a single class has no second class to
// score; neither may produce a NaN, and the constant columns must not
// change what the model predicts.
func TestDegenerateColumnsAndHoldOut(t *testing.T) {
	X, _ := denseRows(400, 6, 3, 25)
	for _, x := range X {
		x[1] = 5   // constant, non-zero
		x[4] = 0   // constant zero
		x[5] = 0.1 // constant whose sum rounds: mean·n != Σ
	}
	y := make([]int, len(X)) // every row, so every held-out row, is class 0
	m, err := Train(X, y, Config{Classes: 3, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range m.W {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("W[%d] = %v", i, w)
		}
	}
	for _, x := range X[:50] {
		if c := m.Predict(x); c != 0 {
			t.Fatalf("predicted class %d on a one-class set", c)
		}
	}
}

// TestFoldBackMatchesStandardisedLogits: the published weights take raw
// features. Their probabilities must equal the softmax of the fitted
// standardised-space logits w·((x−mean)·inv) + b.
func TestFoldBackMatchesStandardisedLogits(t *testing.T) {
	X, y := teacherRows(500, 14, 3, 27)
	cfg := Config{Classes: 3, Epochs: 12, Seed: 28}
	m, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.defaults()
	rows, err := flatten(X, y)
	if err != nil {
		t.Fatal(err)
	}
	fw := len(rows) / len(y)
	mean, inv, err := columnStats(rows, fw)
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := fit(rows, fw, y, cfg, mean, inv)
	want := make([]float64, cfg.Classes)
	got := make([]float64, cfg.Classes)
	for _, x := range X {
		for c := range want {
			want[c] = wb[c*fw]
			for j, v := range x {
				want[c] += wb[c*fw+1+j] * ((v - mean[j]) * inv[j])
			}
		}
		tensor.Softmax(want, want)
		m.PredictProbaInto(x, got)
		for c := range want {
			if d := math.Abs(got[c] - want[c]); d > 1e-12 {
				t.Fatalf("class %d: raw-feature probability %v, standardised %v (|Δ| = %g)", c, got[c], want[c], d)
			}
		}
	}
}

func TestPredictProbaPanicsOnBadWidth(t *testing.T) {
	X, y := blobs(60, 2, 9)
	m, err := Train(X, y, Config{Classes: 2, Epochs: 5, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong feature width")
		}
	}()
	m.PredictProba([]float64{1})
}
