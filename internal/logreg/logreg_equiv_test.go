package logreg

import (
	"math/rand"
	"testing"

	"locec/internal/tensor"
)

// denseRows builds an nf-wide training set shaped like the Phase III
// combiner's (two tightness scalars + two GBDT leaf-value embeddings).
func denseRows(n, nf, classes int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		row := make([]float64, nf)
		for d := range row {
			row[d] = rng.NormFloat64()
		}
		X[i] = row
		y[i] = rng.Intn(classes)
	}
	return X, y
}

// teacherRows is denseRows with learnable labels: the argmax of a planted
// linear teacher plus noise, so a fit converges the way the combiner's
// does instead of timing the stop's patience. The columns are then given
// different offsets and scales, which is what standardisation is for.
func teacherRows(n, nf, classes int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	teacher := make([]float64, classes*nf)
	for i := range teacher {
		teacher[i] = rng.NormFloat64()
	}
	X := make([][]float64, n)
	y := make([]int, n)
	scores := make([]float64, classes)
	for i := range X {
		row := make([]float64, nf)
		for d := range row {
			row[d] = rng.NormFloat64()
		}
		for c := range scores {
			dot := 0.0
			for d, v := range row {
				dot += teacher[c*nf+d] * v
			}
			scores[c] = 0.3*rng.NormFloat64() + dot
		}
		y[i] = tensor.ArgMax(scores)
		for d := range row {
			row[d] = float64(d%5) + row[d]/float64(1+d%7)
		}
		X[i] = row
	}
	return X, y
}

// TestTrainMatchesReferenceExactly pins the GEMM-batched Train to the
// scalar oracle with exact == on every weight and on the number of epochs
// run: the batched kernels preserve the scalar loop's per-element
// accumulation order, so agreement is bit-for-bit, not merely within
// tolerance, and every stop decision falls the same way. Cases sweep the
// class counts (3 hits the dedicated skinny kernels, 2 and 4 the generic
// paths), batch sizes that do and do not divide the row count, L2 on and
// off, and — the last two — sets large enough to hold rows out: one whose
// unlearnable labels end it on the stop, one that converges into its cap.
func TestTrainMatchesReferenceExactly(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		nf      int
		cfg     Config
		teacher bool
		stops   bool // the hold-out ends the fit before the cap
	}{
		{name: "combiner-shape", n: 257, nf: 18, cfg: Config{Classes: 3, Epochs: 7, Seed: 1}},
		{name: "ragged-batch", n: 101, nf: 9, cfg: Config{Classes: 3, Epochs: 5, BatchSize: 7, Seed: 2}},
		{name: "two-classes", n: 96, nf: 5, cfg: Config{Classes: 2, Epochs: 6, Seed: 3}},
		{name: "four-classes", n: 128, nf: 11, cfg: Config{Classes: 4, Epochs: 4, BatchSize: 16, Seed: 4}},
		{name: "no-l2", n: 64, nf: 6, cfg: Config{Classes: 3, Epochs: 8, BatchSize: 5, LR: 0.3, Seed: 5}},
		{name: "heavy-l2", n: 80, nf: 7, cfg: Config{Classes: 3, Epochs: 8, L2: 0.01, Seed: 6}},
		{name: "single-row-batches", n: 23, nf: 4, cfg: Config{Classes: 3, Epochs: 3, BatchSize: 1, Seed: 7}},
		{name: "one-big-batch", n: 40, nf: 8, cfg: Config{Classes: 3, Epochs: 5, BatchSize: 1000, Seed: 8}},
		{name: "held-out-stops-early", n: 640, nf: 12, cfg: Config{Classes: 3, BatchSize: 20, Seed: 9}, stops: true},
		{name: "held-out-hits-cap", n: 450, nf: 10, cfg: Config{Classes: 3, Epochs: 4, Seed: 10}, teacher: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cfg.L2 == 0 && tc.name != "no-l2" {
				tc.cfg.L2 = 1e-4
			}
			gen := denseRows
			if tc.teacher {
				gen = teacherRows
			}
			X, y := gen(tc.n, tc.nf, tc.cfg.Classes, tc.cfg.Seed+100)
			got, err := Train(X, y, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := trainReference(X, y, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Classes != want.Classes || got.Features != want.Features {
				t.Fatalf("shape mismatch: got (%d,%d), want (%d,%d)",
					got.Classes, got.Features, want.Classes, want.Features)
			}
			if got.EpochsRun != want.EpochsRun {
				t.Fatalf("epochs run: batched %d != reference %d", got.EpochsRun, want.EpochsRun)
			}
			tc.cfg.defaults()
			if stopped := got.EpochsRun < tc.cfg.Epochs; stopped != tc.stops {
				t.Fatalf("ran %d epochs of a cap of %d, want stopped early = %v", got.EpochsRun, tc.cfg.Epochs, tc.stops)
			}
			for i := range want.W {
				if got.W[i] != want.W[i] {
					t.Fatalf("W[%d]: batched %v != reference %v", i, got.W[i], want.W[i])
				}
			}
		})
	}
}

// TestTrainReferenceRejectsSameInputs keeps the oracle's validation in
// lockstep with Train's.
func TestTrainReferenceRejectsSameInputs(t *testing.T) {
	if _, err := trainReference(nil, nil, Config{Classes: 2}); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := trainReference([][]float64{{1}}, []int{0}, Config{Classes: 1}); err == nil {
		t.Fatal("Classes=1 accepted")
	}
	if _, err := trainReference([][]float64{{1}}, []int{3}, Config{Classes: 2}); err == nil {
		t.Fatal("bad label accepted")
	}
}

// TestPredictProbaBlockMatchesInto pins the block predictor to the
// per-row path with exact ==.
func TestPredictProbaBlockMatchesInto(t *testing.T) {
	X, y := denseRows(300, 17, 3, 42)
	m, err := Train(X, y, Config{Classes: 3, Epochs: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	fw := m.BiasFirstLen()
	wb := m.BiasFirst(nil)
	rows := len(X)
	xb := make([]float64, rows*fw)
	for r, x := range X {
		xb[r*fw] = 1
		copy(xb[r*fw+1:(r+1)*fw], x)
	}
	out := make([]float64, rows*m.Classes)
	m.PredictProbaBlock(wb, xb, rows, out)
	probs := make([]float64, m.Classes)
	for r, x := range X {
		m.PredictProbaInto(x, probs)
		for c, p := range probs {
			if got := out[r*m.Classes+c]; got != p {
				t.Fatalf("row %d class %d: block %v != per-row %v", r, c, got, p)
			}
		}
	}
}

// BenchmarkTrainCombinerShape measures Train at the real Phase III shape
// (≈37k labeled edges × 182 features × 3 classes) on learnable labels,
// capped at five epochs so that it and the reference benchmark below run
// the same epochs and the ratio of the two is the kernels' alone.
func BenchmarkTrainCombinerShape(b *testing.B) {
	X, y := teacherRows(36726, 182, 3, 99)
	cfg := Config{Classes: 3, Epochs: 5, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(X, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainReferenceCombinerShape(b *testing.B) {
	X, y := teacherRows(36726, 182, 3, 99)
	cfg := Config{Classes: 3, Epochs: 5, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trainReference(X, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
