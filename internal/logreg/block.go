package logreg

import (
	"fmt"

	"locec/internal/tensor"
)

// Block prediction: the Phase III combiner scores hundreds of thousands of
// edges with one tiny model, so the serving-shaped PredictProbaInto loop
// (one GEMV per edge) leaves most of the machine idle. These entry points
// take a whole panel of feature rows and run one GEMM + row-wise softmax.
// Rows carry a leading 1.0 bias column — the same bias-first form Train
// uses internally — so each row's logits accumulate bias first and then
// features in ascending order, exactly PredictProbaInto's order, making
// the block path bit-identical to the per-edge path.

// BiasFirstLen is the row width of the bias-first layout: features plus
// the leading 1.0 column.
func (m *Model) BiasFirstLen() int { return m.Features + 1 }

// BiasFirst writes the weights into dst in the bias-first layout
// (Classes rows of [bias, w...]) and returns it, allocating when dst is
// too small. Callers hold one copy per worker as GEMM scratch.
func (m *Model) BiasFirst(dst []float64) []float64 {
	fw := m.Features + 1
	dst = tensor.EnsureFloats(dst, m.Classes*fw)
	for c := 0; c < m.Classes; c++ {
		dst[c*fw] = m.W[c*fw+m.Features]
		copy(dst[c*fw+1:(c+1)*fw], m.W[c*fw:c*fw+m.Features])
	}
	return dst
}

// PredictProbaBlock writes class probabilities for `rows` feature rows
// into out (rows×Classes). xb is rows×(Features+1) row-major with a
// leading 1.0 bias column per row; wb is the BiasFirst weight copy. The
// result is bit-identical to calling PredictProbaInto row by row.
func (m *Model) PredictProbaBlock(wb, xb []float64, rows int, out []float64) {
	fw := m.Features + 1
	if len(wb) != m.Classes*fw || len(xb) < rows*fw || len(out) < rows*m.Classes {
		panic(fmt.Sprintf("logreg: PredictProbaBlock shape mismatch (rows=%d wb=%d xb=%d out=%d)",
			rows, len(wb), len(xb), len(out)))
	}
	zb := out[:rows*m.Classes]
	for i := range zb {
		zb[i] = 0
	}
	tensor.MatMulABTAcc(zb, xb[:rows*fw], wb, rows, m.Classes, fw)
	for r := 0; r < rows; r++ {
		zr := zb[r*m.Classes : (r+1)*m.Classes]
		tensor.Softmax(zr, zr)
	}
}
