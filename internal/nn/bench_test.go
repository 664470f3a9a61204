package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"locec/internal/tensor"
)

// benchInput is a K×F community matrix as core.FeatureMatrix leaves it:
// filled rows of member features, then zero rows up to K.
func benchInput(k, f, filled int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.NewTensor(1, k, f)
	for i := range x.Data[:filled*f] {
		x.Data[i] = rng.Float64()
	}
	return x
}

// benchFills are the member counts the CommCNN benchmarks run at: the one-
// member community, about the mean (4.7 of K = 20 on batch_cnn_400's
// dataset), and a full matrix, which has no zero tail at all.
var benchFills = []int{1, 5, 20}

func BenchmarkCommCNNForward(b *testing.B) {
	for _, filled := range benchFills {
		b.Run(fmt.Sprintf("filled=%d", filled), func(b *testing.B) {
			net, err := NewCommCNN(CommCNNConfig{K: 20, Features: 13, Classes: 3, Filters: 8, Hidden: 64, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			x := benchInput(20, 13, filled, 2)
			b.ReportAllocs()
			for b.Loop() {
				net.Predict(x)
			}
		})
	}
}

func BenchmarkCommCNNTrainStep(b *testing.B) {
	for _, filled := range benchFills {
		b.Run(fmt.Sprintf("filled=%d", filled), func(b *testing.B) {
			net, err := NewCommCNN(CommCNNConfig{K: 20, Features: 13, Classes: 3, Filters: 8, Hidden: 64, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			xs := make([]*tensor.Tensor, 32)
			ys := make([]int, 32)
			for i := range xs {
				xs[i] = benchInput(20, 13, filled, int64(i))
				ys[i] = i % 3
			}
			opt := NewAdam(0.01)
			b.ReportAllocs()
			seed := int64(0)
			for b.Loop() {
				net.Fit(xs, ys, TrainConfig{Epochs: 1, BatchSize: 32, Workers: 1, Optimizer: opt, Seed: seed})
				seed++
			}
		})
	}
}

// BenchmarkConvBackward times one backward pass of CommCNN's 3×3 8 → 8
// convolution (sq2, 20×13) at output-gradient densities from the 6 % that
// training sees in sq2/sq3 up to a dense gradient.
func BenchmarkConvBackward(b *testing.B) {
	for _, density := range []float64{0.06, 0.25, 0.5, 1} {
		b.Run(fmt.Sprintf("density=%.2f", density), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			c := NewConv2D("c", 8, 8, 3, 3, Same, rng)
			x, g := tensor.NewTensor(8, 20, 13), tensor.NewTensor(8, 20, 13)
			for i := range x.Data {
				x.Data[i] = rng.Float64()
			}
			c.Forward(x)
			for i := range g.Data {
				if rng.Float64() < density {
					g.Data[i] = rng.NormFloat64()
				}
			}
			b.ReportAllocs()
			for b.Loop() {
				c.Backward(g)
			}
		})
	}
}

func BenchmarkConv3x3Same(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D("c", 8, 8, 3, 3, Same, rng)
	x := tensor.NewTensor(8, 20, 13)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Forward(x)
	}
}
