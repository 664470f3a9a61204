package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"locec/internal/tensor"
)

func TestSequentialOutShapeMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	seq := NewSequential(
		NewConv2D("a", 1, 3, 3, 3, Same, rng),
		NewReLU(),
		NewMaxPool2(),
		NewConv2D("b", 3, 2, 1, 1, Valid, rng),
		NewGlobalMaxPool(),
		NewFlatten(),
		NewDense("d", 2, 5, rng),
	)
	c, h, w := seq.OutShape(1, 7, 9)
	x := tensor.NewTensor(1, 7, 9)
	out := seq.Forward(x)
	if out.C != c || out.H != h || out.W != w {
		t.Fatalf("OutShape (%d,%d,%d) != Forward (%d,%d,%d)", c, h, w, out.C, out.H, out.W)
	}
}

func TestCloneSharesParams(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	conv := NewConv2D("c", 1, 2, 3, 3, Same, rng)
	clone := conv.Clone().(*Conv2D)
	// Clone shares Param structs: weight mutation is visible both ways.
	conv.Params()[0].W[0] = 42
	if clone.Params()[0].W[0] != 42 {
		t.Fatal("clone does not share weights")
	}
	// But activation state is private: forward on the clone must not
	// disturb the original's memoized input.
	x := tensor.NewTensor(1, 4, 4)
	conv.Forward(x)
	clone.Forward(tensor.NewTensor(1, 4, 4))
	g := tensor.NewTensor(2, 4, 4)
	// Backward on the original uses ITS memoized input; must not panic.
	conv.Backward(g)
}

func TestDetachParamsIsolatesGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	root := NewSequential(NewConv2D("c", 1, 1, 1, 1, Valid, rng), NewFlatten(), NewDense("d", 4, 2, rng))
	detached := cloneAndDetachParams(root)
	origParams := root.Params()
	detParams := detached.Params()
	if len(origParams) != len(detParams) {
		t.Fatal("param counts differ")
	}
	for i := range origParams {
		if &origParams[i].W[0] == &detParams[i].W[0] {
			t.Fatal("detached params alias originals")
		}
		// Weights copied.
		for j := range origParams[i].W {
			if origParams[i].W[j] != detParams[i].W[j] {
				t.Fatal("weights not copied")
			}
		}
	}
	// Gradient accumulation on the detached copy leaves originals alone.
	x := tensor.NewTensor(1, 2, 2)
	for i := range x.Data {
		x.Data[i] = 1
	}
	out := detached.Forward(x)
	g := tensor.NewTensor(out.C, out.H, out.W)
	for i := range g.Data {
		g.Data[i] = 1
	}
	detached.Backward(g)
	for _, p := range origParams {
		for _, gv := range p.G {
			if gv != 0 {
				t.Fatal("gradient leaked to original params")
			}
		}
	}
}

func TestOptimizerStateIsolation(t *testing.T) {
	// Two params with identical gradients must update identically but
	// independently under Adam.
	a := newParam("a", 2)
	b := newParam("b", 2)
	a.W[0], b.W[0] = 1, 1
	a.G[0], b.G[0] = 0.5, 0.5
	opt := NewAdam(0.1)
	opt.Step([]*Param{a, b})
	if a.W[0] != b.W[0] {
		t.Fatalf("identical params diverged: %v vs %v", a.W[0], b.W[0])
	}
	// Second step with a zero gradient on b only.
	a.G[0] = 0.5
	b.G[0] = 0
	opt.Step([]*Param{a, b})
	if a.W[0] == b.W[0] {
		t.Fatal("optimizer state not independent per param")
	}
}

func TestFitEmptyAndDegenerateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	net := NewNetwork(NewSequential(NewFlatten(), NewDense("d", 4, 2, rng)), 2)
	before := slices.Clone(net.Root.Params()[0].W)
	net.Fit(nil, nil, TrainConfig{}) // must not panic
	if !slices.Equal(net.Root.Params()[0].W, before) {
		t.Fatal("Fit on no samples changed the weights")
	}
}

// TestPoolWindowsWithoutAMaximum feeds both pools windows with no value
// above −Inf — all NaN, all −Inf — which once left their argmax at −1 and
// made Backward index out of range. Such a window outputs −Inf, as it
// always did, and passes its gradient to its first cell.
func TestPoolWindowsWithoutAMaximum(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(-1)
	x := tensor.NewTensor(2, 2, 2)
	copy(x.Data, []float64{nan, nan, nan, nan, inf, inf, inf, inf})
	for _, p := range []Layer{NewMaxPool2(), NewGlobalMaxPool()} {
		out := p.Forward(x)
		if out.Data[0] != inf || out.Data[1] != inf {
			t.Fatalf("%T: out = %v, want [-Inf -Inf]", p, out.Data)
		}
		g := tensor.NewTensor(2, 1, 1)
		g.Data[0], g.Data[1] = 2, 3
		want := []float64{2, 0, 0, 0, 3, 0, 0, 0}
		if gi := p.Backward(g); !slices.Equal(gi.Data, want) {
			t.Fatalf("%T: gradIn = %v, want %v", p, gi.Data, want)
		}
	}
}

// TestFitReturnsWhenTrainingDiverges trains CommCNN on finite features
// (±1e200, which social.CheckValues accepts) at a learning rate of 1e300:
// the weights overflow, activations turn NaN and −Inf, and Fit must still
// return rather than panic in a pool's Backward.
func TestFitReturnsWhenTrainingDiverges(t *testing.T) {
	net, err := NewCommCNN(CommCNNConfig{K: 6, Features: 4, Classes: 3, Filters: 3, Hidden: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := synthTask(30, 6, 4, 31)
	for i, x := range xs {
		for j := range x.Data {
			x.Data[j] = math.Copysign(1e200, float64((i+j)%3-1))
		}
	}
	net.Fit(xs, ys, TrainConfig{Epochs: 3, BatchSize: 10, Seed: 9, Workers: 1, Optimizer: NewAdam(1e300)})
}
