// Package nn is a small, stdlib-only neural network framework sufficient to
// implement the paper's CommCNN model (Fig. 8): 2-D convolutions with
// arbitrary rectangular kernels (square 3×3, wide 1×F, long k×1, and 1×1),
// max pooling, global max pooling, dense layers, ReLU, branch containers
// with concatenation, softmax cross-entropy, and the Adam optimizer.
//
// Layers process one sample at a time; mini-batch training accumulates
// parameter gradients across the batch (optionally in parallel) before an
// optimizer step. All randomness is seeded for reproducibility.
package nn

import (
	"locec/internal/tensor"
)

// Param is a learnable parameter tensor with its gradient accumulator.
type Param struct {
	Name string
	W    []float64 // weights
	G    []float64 // accumulated gradient, same length as W
}

func newParam(name string, n int) *Param {
	return &Param{Name: name, W: make([]float64, n), G: make([]float64, n)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// Layer is one differentiable stage of a network. Forward consumes an input
// feature map and returns the output; Backward consumes the gradient of the
// loss with respect to the output, accumulates parameter gradients, and
// returns the gradient with respect to the input.
//
// Layers are stateful between Forward and Backward (they memoize the last
// input/activation), so a single Layer instance must not be shared across
// goroutines. Networks provide Clone for data-parallel training.
type Layer interface {
	// Forward computes the layer output for x.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward computes the input gradient given the output gradient and
	// accumulates into the layer's parameter gradients.
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// Params returns the learnable parameters (possibly none).
	Params() []*Param
	// OutShape reports the output shape for a given input shape.
	OutShape(c, h, w int) (int, int, int)
	// Clone returns a structurally identical layer SHARING the same Param
	// structs (weights and gradient accumulators) but with private
	// activation state.
	Clone() Layer
}
