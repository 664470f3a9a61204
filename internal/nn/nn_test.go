package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"locec/internal/tensor"
)

// numericGradCheck compares analytic parameter and input gradients of an
// arbitrary layer stack against central finite differences on a scalar
// loss L = sum(w_i * out_i) with fixed random weights.
func numericGradCheck(t *testing.T, root Layer, c, h, w int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := tensor.NewTensor(c, h, w)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	oc, oh, ow := root.OutShape(c, h, w)
	lw := make([]float64, oc*oh*ow)
	for i := range lw {
		lw[i] = rng.NormFloat64()
	}
	loss := func() float64 {
		sum := 0.0
		for i, v := range root.Forward(x).Data {
			sum += v * lw[i]
		}
		return sum
	}
	// Analytic gradients.
	for _, p := range root.Params() {
		p.ZeroGrad()
	}
	out := root.Forward(x)
	g := tensor.NewTensor(oc, oh, ow)
	copy(g.Data, lw)
	gradIn := root.Backward(g)
	_ = out

	const eps = 1e-5
	const tol = 1e-4
	// Input gradient check (sample a few coordinates).
	for trial := 0; trial < 10; trial++ {
		i := rng.Intn(len(x.Data))
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss()
		x.Data[i] = orig - eps
		lm := loss()
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-gradIn.Data[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("input grad mismatch at %d: analytic %.6g numeric %.6g", i, gradIn.Data[i], num)
		}
	}
	// Parameter gradient check.
	for _, p := range root.Params() {
		for trial := 0; trial < 8; trial++ {
			i := rng.Intn(len(p.W))
			orig := p.W[i]
			p.W[i] = orig + eps
			lp := loss()
			p.W[i] = orig - eps
			lm := loss()
			p.W[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-p.G[i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s grad mismatch at %d: analytic %.6g numeric %.6g", p.Name, i, p.G[i], num)
			}
		}
	}
}

func TestConvValidGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	numericGradCheck(t, NewConv2D("c", 2, 3, 2, 3, Valid, rng), 2, 5, 6, 11)
}

func TestConvSameGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	numericGradCheck(t, NewConv2D("c", 1, 2, 3, 3, Same, rng), 1, 4, 5, 12)
}

func TestConvWideLongKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Wide 1×W kernel collapses width.
	wide := NewConv2D("w", 1, 2, 1, 6, Valid, rng)
	oc, oh, ow := wide.OutShape(1, 5, 6)
	if oc != 2 || oh != 5 || ow != 1 {
		t.Fatalf("wide OutShape = (%d,%d,%d), want (2,5,1)", oc, oh, ow)
	}
	numericGradCheck(t, wide, 1, 5, 6, 13)
	// Long H×1 kernel collapses height.
	long := NewConv2D("l", 1, 2, 5, 1, Valid, rng)
	oc, oh, ow = long.OutShape(1, 5, 6)
	if oc != 2 || oh != 1 || ow != 6 {
		t.Fatalf("long OutShape = (%d,%d,%d), want (2,1,6)", oc, oh, ow)
	}
	numericGradCheck(t, long, 1, 5, 6, 14)
}

func TestConv1x1Gradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	numericGradCheck(t, NewConv2D("p", 3, 2, 1, 1, Valid, rng), 3, 4, 4, 15)
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	numericGradCheck(t, NewDense("d", 12, 7, rng), 1, 3, 4, 16)
}

func TestSequentialGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	seq := NewSequential(
		NewConv2D("c1", 1, 2, 3, 3, Same, rng),
		NewReLU(),
		NewMaxPool2(),
		NewFlatten(),
		NewDense("d1", 2*3*3, 4, rng),
	)
	numericGradCheck(t, seq, 1, 5, 5, 17)
}

func TestParallelConcatGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pc := NewParallelConcat(
		NewSequential(NewConv2D("a", 1, 2, 1, 4, Valid, rng), NewGlobalMaxPool()),
		NewSequential(NewConv2D("b", 1, 2, 3, 1, Valid, rng), NewGlobalMaxPool()),
		NewFlatten(),
	)
	numericGradCheck(t, pc, 1, 3, 4, 18)
}

func TestMaxPoolCeilMode(t *testing.T) {
	p := NewMaxPool2()
	c, h, w := p.OutShape(1, 5, 3)
	if c != 1 || h != 3 || w != 2 {
		t.Fatalf("OutShape(1,5,3) = (%d,%d,%d), want (1,3,2)", c, h, w)
	}
	x := tensor.NewTensor(1, 3, 3)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	out := p.Forward(x)
	// Windows: {0,1,3,4}=4, {2,5}=5, {6,7}=7, {8}=8.
	want := []float64{4, 5, 7, 8}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("pool out = %v, want %v", out.Data, want)
		}
	}
	// Backward routes gradient to argmax positions only.
	g := tensor.NewTensor(1, 2, 2)
	for i := range g.Data {
		g.Data[i] = 1
	}
	gi := p.Backward(g)
	sum := 0.0
	for _, v := range gi.Data {
		sum += v
	}
	if sum != 4 {
		t.Fatalf("pool backward mass = %v, want 4", sum)
	}
	if gi.Data[4] != 1 || gi.Data[5] != 1 || gi.Data[7] != 1 || gi.Data[8] != 1 {
		t.Fatalf("pool backward misrouted: %v", gi.Data)
	}
}

func TestGlobalMaxPool(t *testing.T) {
	p := NewGlobalMaxPool()
	x := tensor.NewTensor(2, 2, 2)
	copy(x.Data, []float64{1, 9, 3, 4, -5, -1, -2, -8})
	out := p.Forward(x)
	if out.Data[0] != 9 || out.Data[1] != -1 {
		t.Fatalf("gmp out = %v", out.Data)
	}
	g := tensor.NewTensor(2, 1, 1)
	g.Data[0], g.Data[1] = 2, 3
	gi := p.Backward(g)
	if gi.Data[1] != 2 || gi.Data[5] != 3 {
		t.Fatalf("gmp backward = %v", gi.Data)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		// Clamp to avoid Inf overflow in the property itself.
		clamp := func(v float64) float64 { return math.Max(-500, math.Min(500, v)) }
		in := []float64{clamp(a), clamp(b), clamp(c)}
		out := make([]float64, 3)
		tensor.Softmax(in, out)
		sum := 0.0
		for _, v := range out {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCommCNNShapesAndForward(t *testing.T) {
	net, err := NewCommCNN(CommCNNConfig{K: 20, Features: 12, Classes: 3, Filters: 4, Hidden: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewTensor(1, 20, 12)
	rng := rand.New(rand.NewSource(9))
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	probs := net.Predict(x)
	if len(probs) != 3 {
		t.Fatalf("probs len = %d", len(probs))
	}
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probs sum = %v", sum)
	}
}

func TestCommCNNInvalidConfig(t *testing.T) {
	if _, err := NewCommCNN(CommCNNConfig{K: 1, Features: 4, Classes: 3}); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := NewCommCNN(CommCNNConfig{K: 10, Features: 4, Classes: 1}); err == nil {
		t.Fatal("single class accepted")
	}
}

// synthTask builds a linearly separable 3-class toy problem on small
// matrices: class determined by which third of the matrix has largest mass.
func synthTask(n, k, f int, seed int64) ([]*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.Tensor, n)
	ys := make([]int, n)
	for i := 0; i < n; i++ {
		cls := rng.Intn(3)
		x := tensor.NewTensor(1, k, f)
		for j := range x.Data {
			x.Data[j] = rng.NormFloat64() * 0.3
		}
		// Boost a class-specific band of rows.
		lo := cls * k / 3
		hi := (cls + 1) * k / 3
		for r := lo; r < hi; r++ {
			for c := 0; c < f; c++ {
				x.Data[x.Idx(0, r, c)] += 1.5
			}
		}
		xs[i] = x
		ys[i] = cls
	}
	return xs, ys
}

// epochLosses trains net as Fit does for the given number of epochs and
// returns each epoch's mean loss.
func epochLosses(net *Network, xs []*tensor.Tensor, ys []int, epochs int, cfg TrainConfig) []float64 {
	tr := net.NewTrainer(cfg)
	defer tr.Close()
	losses := make([]float64, epochs)
	for e := range losses {
		losses[e] = tr.Epoch(xs, ys)
	}
	return losses
}

// accuracy is the fraction of samples whose argmax prediction matches the
// label.
func accuracy(net *Network, xs []*tensor.Tensor, ys []int) float64 {
	correct := 0
	probs := make([]float64, net.Classes)
	for i, x := range xs {
		net.PredictInto(x, probs)
		if tensor.ArgMax(probs) == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}

func TestCommCNNLearnsSyntheticTask(t *testing.T) {
	net, err := NewCommCNN(CommCNNConfig{K: 9, Features: 6, Classes: 3, Filters: 4, Hidden: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := synthTask(150, 9, 6, 21)
	losses := epochLosses(net, xs, ys, 12, TrainConfig{BatchSize: 16, Seed: 5, Workers: 1, Optimizer: NewAdam(0.01)})
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: first %.4f last %.4f", losses[0], losses[len(losses)-1])
	}
	if acc := accuracy(net, xs, ys); acc < 0.9 {
		t.Fatalf("training accuracy = %.3f, want >= 0.9", acc)
	}
}

func TestFitParallelMatchesSerialPredictions(t *testing.T) {
	xs, ys := synthTask(90, 6, 4, 31)
	build := func() *Network {
		net, err := NewCommCNN(CommCNNConfig{K: 6, Features: 4, Classes: 3, Filters: 3, Hidden: 8, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	serial := build()
	serial.Fit(xs, ys, TrainConfig{Epochs: 6, BatchSize: 15, Seed: 9, Workers: 1, Optimizer: NewAdam(0.01)})
	par := build()
	par.Fit(xs, ys, TrainConfig{Epochs: 6, BatchSize: 15, Seed: 9, Workers: 2, Optimizer: NewAdam(0.01)})
	// Parallel accumulation reorders float adds, so compare behavior
	// (accuracy), not weights.
	sAcc, pAcc := accuracy(serial, xs, ys), accuracy(par, xs, ys)
	if math.Abs(sAcc-pAcc) > 0.15 {
		t.Fatalf("parallel training diverged: serial %.3f parallel %.3f", sAcc, pAcc)
	}
}

// TestFitReproducibleAtFixedWorkers pins what TrainConfig.Workers promises:
// strided sample assignment and a serial merge in worker order make a fit
// at a fixed worker count a pure function of its seed — every parameter
// ==, also with the workers on real goroutines. (Between counts the batch
// sum is grouped differently; TestFitParallelMatchesSerialPredictions
// covers that side.) The benchmark's nn.fit replay check relies on this.
func TestFitReproducibleAtFixedWorkers(t *testing.T) {
	xs, ys := synthTask(90, 6, 4, 31)
	fit := func() []*Param {
		net, err := NewCommCNN(CommCNNConfig{K: 6, Features: 4, Classes: 3, Filters: 3, Hidden: 8, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		net.Fit(xs, ys, TrainConfig{Epochs: 4, BatchSize: 15, Seed: 9, Workers: 2, Optimizer: NewAdam(0.01)})
		return net.Root.Params()
	}
	first, second := fit(), fit()
	for pi, p := range first {
		for i, w := range p.W {
			if second[pi].W[i] != w {
				t.Fatalf("%s[%d]: %v in the first fit, %v in the second", p.Name, i, w, second[pi].W[i])
			}
		}
	}
}

func TestAdamReducesLossOnDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	root := NewSequential(NewFlatten(), NewDense("d", 8, 3, rng))
	net := NewNetwork(root, 3)
	xs := make([]*tensor.Tensor, 60)
	ys := make([]int, 60)
	for i := range xs {
		cls := i % 3
		x := tensor.NewTensor(1, 2, 4)
		for j := range x.Data {
			x.Data[j] = rng.NormFloat64() * 0.1
		}
		x.Data[cls] += 2
		xs[i] = x
		ys[i] = cls
	}
	losses := epochLosses(net, xs, ys, 15, TrainConfig{BatchSize: 10, Seed: 2, Workers: 1, Optimizer: NewAdam(0.05)})
	if first, last := losses[0], losses[len(losses)-1]; last >= first {
		t.Fatalf("loss did not decrease (%.4f -> %.4f)", first, last)
	}
}
