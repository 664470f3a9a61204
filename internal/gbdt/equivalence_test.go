package gbdt

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"locec/internal/testutil"
)

// modelBytes serializes a model for bitwise tree comparison: Save writes
// every float64 as its bit pattern, so equal bytes means equal trees down
// to the last bit.
func modelBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

func randomFixture(rng *rand.Rand, n, nf, classes int) ([][]float64, []int) {
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		row := make([]float64, nf)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		X[i] = row
		y[i] = rng.Intn(classes)
	}
	return X, y
}

// oracleCase is one training fixture of the byte-equality oracles.
type oracleCase struct {
	name string
	cfg  Config
	gen  func(rng *rand.Rand) ([][]float64, []int)
}

// exactOracleCases keep every column at ≤256 distinct values, so both the
// exact sort-based trainer and the direct-accumulation histogram trainer
// can be asked for identical bytes on them.
var exactOracleCases = []oracleCase{
	{
		name: "random_small",
		cfg:  Config{Classes: 3, Rounds: 8, MaxDepth: 4, Seed: 7},
		gen: func(rng *rand.Rand) ([][]float64, []int) {
			return randomFixture(rng, 120, 6, 3)
		},
	},
	{
		name: "subsampled",
		cfg:  Config{Classes: 3, Rounds: 6, MaxDepth: 3, Subsample: 0.7, ColSample: 0.6, Seed: 11},
		gen: func(rng *rand.Rand) ([][]float64, []int) {
			return randomFixture(rng, 150, 8, 3)
		},
	},
	{
		// About half the rounds sample no row at all and fall back to one
		// drawn row; the others grow trees over one or two.
		name: "sparse_subsample",
		cfg:  Config{Classes: 2, Rounds: 12, Subsample: 0.02, Seed: 4},
		gen: func(rng *rand.Rand) ([][]float64, []int) {
			return randomFixture(rng, 30, 3, 2)
		},
	},
	{
		name: "depth_1",
		cfg:  Config{Classes: 3, Rounds: 6, MaxDepth: 1, Seed: 19},
		gen: func(rng *rand.Rand) ([][]float64, []int) {
			return randomFixture(rng, 90, 5, 3)
		},
	},
	{
		name: "all_equal_feature",
		cfg:  Config{Classes: 2, Rounds: 4, Seed: 3},
		gen: func(rng *rand.Rand) ([][]float64, []int) {
			X, y := randomFixture(rng, 60, 4, 2)
			for i := range X {
				X[i][1] = 3.5 // constant column must never split
			}
			return X, y
		},
	},
	{
		name: "single_sample",
		cfg:  Config{Classes: 2, Rounds: 3, Seed: 1},
		gen: func(rng *rand.Rand) ([][]float64, []int) {
			return [][]float64{{1, 2, 3}}, []int{1}
		},
	},
	{
		name: "all_one_class",
		cfg:  Config{Classes: 3, Rounds: 4, Seed: 5},
		gen: func(rng *rand.Rand) ([][]float64, []int) {
			X, y := randomFixture(rng, 80, 5, 3)
			for i := range y {
				y[i] = 2
			}
			return X, y
		},
	},
	{
		name: "few_distinct_values",
		cfg:  Config{Classes: 2, Rounds: 5, MaxDepth: 5, Seed: 9},
		gen: func(rng *rand.Rand) ([][]float64, []int) {
			X, y := randomFixture(rng, 200, 4, 2)
			for i := range X {
				for j := range X[i] {
					X[i][j] = math.Floor(X[i][j]*2) / 2 // heavy ties
				}
			}
			return X, y
		},
	},
}

// requireSameModel trains one fixture with Train and with an oracle
// trainer and demands equal serialized bytes.
func requireSameModel(t *testing.T, tc oracleCase, oracle func([][]float64, []int, Config) (*Model, error)) {
	t.Helper()
	X, y := tc.gen(rand.New(rand.NewSource(42)))
	ref, err := oracle(clone2D(X), y, tc.cfg)
	if err != nil {
		t.Fatalf("reference train: %v", err)
	}
	got, err := Train(clone2D(X), y, tc.cfg)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	refB, gotB := modelBytes(t, ref), modelBytes(t, got)
	if !bytes.Equal(refB, gotB) {
		t.Fatalf("trees differ from the reference trainer's (sha256 %x vs %x)\nref: %x\ngot: %x",
			sha256.Sum256(refB), sha256.Sum256(gotB), firstDiff(refB, gotB), firstDiff(gotB, refB))
	}
}

// TestHistogramMatchesReferenceExactly pins the strongest form of the
// oracle: with ≤256 distinct values per feature the histogram candidate
// set equals the exact path's, so the trees must be identical — compared
// as serialized bytes, not within a tolerance.
func TestHistogramMatchesReferenceExactly(t *testing.T) {
	for _, tc := range exactOracleCases {
		t.Run(tc.name, func(t *testing.T) { requireSameModel(t, tc, trainReference) })
	}
}

// pipelineShaped is a training set with the shape Phase II hands the
// trainer: 26 pooled columns, half of them ratios and small counts with
// at most 91 distinct values (lossless bins), half of them continuous with
// thousands (equal-frequency bins), three classes the columns partly
// explain. No two columns share a distribution: in round 0 every row of a
// class has the same gradient, a gain is then a function of class counts
// alone, and twin columns tie exactly — the one thing that lets summation
// rounding pick the winner.
func pipelineShaped(rng *rand.Rand) ([][]float64, []int) {
	const n, nf = 6000, 26
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := rng.Intn(3)
		row := make([]float64, nf)
		for j := range row {
			if j%2 == 0 {
				row[j] = float64(rng.Intn(40+j)+c*(j+3)%20) / 90
			} else {
				row[j] = rng.NormFloat64()*(1+float64(j)/10) + float64(c*(j%5))/4
			}
		}
		X[i], y[i] = row, c
	}
	return X, y
}

// TestTrainMatchesHistReference holds the trainer — node-ordered
// gradients, one-pass column partition, sibling-subtraction histograms —
// to byte-identical serialized models against the direct-accumulation
// trainer it replaced (hist_reference_test.go). Subtraction moves a
// derived bin sum in its last bits, so this is a pinned fact about these
// fixtures (and about every benchmark training set, CHANGES PR 19), not a
// theorem: a gain tie inside the 1e-12 rule could break it, and the fix
// for a failure here is to show that node and its two gains, not to loosen
// the comparison.
func TestTrainMatchesHistReference(t *testing.T) {
	cases := append([]oracleCase{
		{
			name: "pipeline_shaped",
			cfg:  Config{Classes: 3, Rounds: 30, MaxDepth: 4, Seed: 42},
			gen:  pipelineShaped,
		},
		{
			name: "wide_subsampled",
			cfg:  Config{Classes: 3, Rounds: 6, MaxDepth: 6, Subsample: 0.8, ColSample: 0.7, Seed: 23},
			gen: func(rng *rand.Rand) ([][]float64, []int) {
				return randomFixture(rng, 1500, 7, 3)
			},
		},
	}, exactOracleCases...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { requireSameModel(t, tc, trainHistReference) })
	}
}

// TestHistogramWideFeatures covers the lossy regime (>256 distinct
// values per feature), where trees may legitimately differ from the
// exact path. The contract there is model quality, not bit-equality:
// the binned model's argmax class must agree with the exact model's on
// the overwhelming majority of training points.
func TestHistogramWideFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Learnable blobs with 2000 distinct values per column (> 256 bins).
	centers := [][]float64{{0, 0, 0, 0, 0}, {4, 4, 0, -4, 0}, {-4, 0, 4, 4, -4}}
	n := 2000
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := rng.Intn(3)
		y[i] = c
		row := make([]float64, 5)
		for j := range row {
			row[j] = centers[c][j] + rng.NormFloat64()
		}
		X[i] = row
	}
	cfg := Config{Classes: 3, Rounds: 6, MaxDepth: 4, Seed: 13}
	ref, err := trainReference(clone2D(X), y, cfg)
	if err != nil {
		t.Fatalf("reference train: %v", err)
	}
	got, err := Train(clone2D(X), y, cfg)
	if err != nil {
		t.Fatalf("histogram train: %v", err)
	}
	agree := 0
	for i := range X {
		if ref.Predict(X[i]) == got.Predict(X[i]) {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(X)); frac < 0.9 {
		t.Fatalf("binned model agrees with exact on only %.1f%% of training points", frac*100)
	}
}

// TestPredictionAgreement asserts the ≤1e-12 agreement contract of the
// incremental oracle on random fixtures in the lossless regime, across
// every inference entry point.
func TestPredictionAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	X, y := randomFixture(rng, 200, 7, 3)
	cfg := Config{Classes: 3, Rounds: 10, MaxDepth: 4, Seed: 21}
	ref, err := trainReference(clone2D(X), y, cfg)
	if err != nil {
		t.Fatalf("reference train: %v", err)
	}
	got, err := Train(clone2D(X), y, cfg)
	if err != nil {
		t.Fatalf("histogram train: %v", err)
	}
	for trial := 0; trial < 200; trial++ {
		x := make([]float64, 7)
		for j := range x {
			x[j] = rng.NormFloat64() * 2
		}
		rm, gm := ref.Margins(x), got.Margins(x)
		for c := range rm {
			if math.Abs(rm[c]-gm[c]) > 1e-12 {
				t.Fatalf("margin[%d] diverges: ref=%v got=%v", c, rm[c], gm[c])
			}
		}
		for ti := range ref.forest.Roots {
			rv, ri := ref.forest.walk(ti, x)
			gv, gi := got.forest.walk(ti, x)
			if math.Abs(rv-gv) > 1e-12 {
				t.Fatalf("leaf value %d diverges: ref=%v got=%v", ti, rv, gv)
			}
			if ri != gi {
				t.Fatalf("leaf index %d diverges: ref=%v got=%v", ti, ri, gi)
			}
		}
	}
}

// TestWorkerCountBitIdentity is the determinism property test: any width
// must produce byte-identical models. The only fan-out left in training is
// the per-column parallel.For of buildBins, so the width is GOMAXPROCS;
// Config.Workers is set along the way to show it is not read. Run under
// -race and -shuffle=on in CI.
func TestWorkerCountBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// >256 distinct values per column covers the lossy binning path.
	X, y := randomFixture(rng, 1200, 6, 3)
	base := Config{Classes: 3, Rounds: 4, MaxDepth: 5, Subsample: 0.9, Seed: 17}
	var want []byte
	for _, procs := range []int{1, 2, 8} {
		testutil.SetProcs(t, procs)
		cfg := base
		cfg.Workers = procs
		m, err := Train(clone2D(X), y, cfg)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		js := modelBytes(t, m)
		if want == nil {
			want = js
			continue
		}
		if !bytes.Equal(want, js) {
			t.Fatalf("GOMAXPROCS=%d produced different trees than GOMAXPROCS=1", procs)
		}
	}
}

// TestWorkersExcludedFromSerialization pins that Workers is a pure speed
// knob: it must not leak into the serialized model, or artifacts trained
// with different worker counts would not be byte-identical.
func TestWorkersExcludedFromSerialization(t *testing.T) {
	js, err := json.Marshal(Config{Classes: 3, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(js, []byte("Workers")) {
		t.Fatalf("Workers serialized in Config: %s", js)
	}
}

// TestBinEdgesBounds sanity-checks the lossy binning path directly.
func TestBinEdgesBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 10000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	X := make([][]float64, n)
	for i := range X {
		X[i] = []float64{vals[i]}
	}
	b := buildBins(X, 1)
	if b.counts[0] > maxBins {
		t.Fatalf("bin count %d exceeds maxBins", b.counts[0])
	}
	if b.counts[0] < maxBins/2 {
		t.Fatalf("suspiciously few bins (%d) for %d distinct values", b.counts[0], n)
	}
	// Every row's code must land in a bin whose [lo, hi] range contains it.
	for i, row := range X {
		c := b.codes[0][i]
		if row[0] < b.lo[0][c] || row[0] > b.hi[0][c] {
			t.Fatalf("row %d value %v coded into bin %d [%v, %v]", i, row[0], c, b.lo[0][c], b.hi[0][c])
		}
	}
}

func clone2D(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, r := range X {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

// firstDiff renders the neighborhood of the first differing byte.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 40
	if lo < 0 {
		lo = 0
	}
	hi := i + 40
	if hi > len(a) {
		hi = len(a)
	}
	return string(a[lo:hi])
}
