// Package tensor provides the small dense numeric types used by the neural
// network substrate: a 3-D feature-map tensor (channels × height × width)
// and a 2-D matrix, with the handful of operations CommCNN needs.
//
// Everything is float64 and row-major. The package favors clarity and
// determinism over BLAS-grade performance; the shapes involved in LoCEC
// (k×(|I|+|f|) community matrices, k ≈ 20) are tiny.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense rank-3 array with shape (C, H, W), stored row-major:
// index (c, h, w) lives at Data[(c*H+h)*W + w].
type Tensor struct {
	C, H, W int
	Data    []float64
}

// NewTensor allocates a zeroed tensor of the given shape.
func NewTensor(c, h, w int) *Tensor {
	if c < 0 || h < 0 || w < 0 {
		panic(fmt.Sprintf("tensor: invalid shape (%d,%d,%d)", c, h, w))
	}
	return &Tensor{C: c, H: h, W: w, Data: make([]float64, c*h*w)}
}

// FromMatrix wraps a 2-D matrix as a single-channel tensor (1, rows, cols).
// The data is copied.
func FromMatrix(m *Matrix) *Tensor {
	t := NewTensor(1, m.R, m.C)
	copy(t.Data, m.Data)
	return t
}

// Size returns the number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// At returns the element at (c, h, w).
func (t *Tensor) At(c, h, w int) float64 { return t.Data[(c*t.H+h)*t.W+w] }

// Set stores v at (c, h, w).
func (t *Tensor) Set(c, h, w int, v float64) { t.Data[(c*t.H+h)*t.W+w] = v }

// Idx returns the flat index of (c, h, w).
func (t *Tensor) Idx(c, h, w int) int { return (c*t.H+h)*t.W + w }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := NewTensor(t.C, t.H, t.W)
	copy(out.Data, t.Data)
	return out
}

// Zero resets all elements to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// AddScaled adds s*other element-wise in place. Shapes must match.
func (t *Tensor) AddScaled(other *Tensor, s float64) {
	if t.Size() != other.Size() {
		panic("tensor: AddScaled shape mismatch")
	}
	for i, v := range other.Data {
		t.Data[i] += s * v
	}
}

// Matrix is a dense row-major 2-D array.
type Matrix struct {
	R, C int
	Data []float64
}

// NewMatrix allocates a zeroed R×C matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape (%d,%d)", r, c))
	}
	return &Matrix{R: r, C: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set stores v at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// RandInit fills dst with N(0, std) samples from rng (He/Glorot-style init
// is obtained by passing an appropriate std).
func RandInit(dst []float64, std float64, rng *rand.Rand) {
	for i := range dst {
		dst[i] = rng.NormFloat64() * std
	}
}

// Softmax writes the softmax of logits into out (which may alias logits).
// It is numerically stable under large logits.
func Softmax(logits, out []float64) {
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - maxv)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}

// ArgMax returns the index of the largest element (first on ties), or -1
// for an empty slice.
func ArgMax(x []float64) int {
	best, bi := math.Inf(-1), -1
	for i, v := range x {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}
