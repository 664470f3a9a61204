package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// convBenchShapes are the three convolutions that carry CommCNN's
// multiply-adds at K = 20, 13 features (OutC × InC·KH·KW × OH·OW): the two
// Square Convolution Modules and the first square convolution.
var convBenchShapes = [][3]int{{8, 72, 260}, {8, 72, 70}, {8, 9, 260}}

// convOperands are the buffers of a Conv2D-shaped product pair: weights w
// (oc×kk), the patch rows packed as one matrix cols (kk×p), a dense output
// gradient grad (oc×p) and the two destinations.
type convOperands struct {
	w, cols, grad []float64
	out, wgrad    []float64
	oc, kk, p     int
}

// convPasses are the two products at those shapes, each through the
// product kernel and through the oracle loop it replaced: the forward,
// and the dense weight gradient, which Conv2D's backward no longer runs
// but whose dot tile the combiner's logits share.
var convPasses = []struct {
	name              string
	kernel, reference func(o *convOperands)
}{
	{"forward",
		func(o *convOperands) { MatMul(o.out, o.w, o.cols, o.oc, o.kk, o.p) },
		func(o *convOperands) { clear(o.out); matMulAccReference(o.out, o.w, o.cols, o.oc, o.kk, o.p) }},
	{"weightgrad",
		func(o *convOperands) { MatMulABTAcc(o.wgrad, o.grad, o.cols, o.oc, o.kk, o.p) },
		func(o *convOperands) { matMulABTAccReference(o.wgrad, o.grad, o.cols, o.oc, o.kk, o.p) }},
}

func benchGemmConv(b *testing.B, reference bool) {
	for _, pass := range convPasses {
		run := pass.kernel
		if reference {
			run = pass.reference
		}
		for _, sh := range convBenchShapes {
			oc, kk, p := sh[0], sh[1], sh[2]
			b.Run(fmt.Sprintf("%s/%dx%dx%d", pass.name, oc, kk, p), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				o := &convOperands{
					w: randSlice(oc*kk, rng), cols: randSlice(kk*p, rng), grad: randSlice(oc*p, rng),
					out: make([]float64, oc*p), wgrad: make([]float64, oc*kk),
					oc: oc, kk: kk, p: p,
				}
				for b.Loop() {
					run(o)
				}
				b.ReportMetric(2*float64(oc*kk*p)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// BenchmarkGemmConv times the product kernels at the convolution shapes.
func BenchmarkGemmConv(b *testing.B) { benchGemmConv(b, false) }

// BenchmarkGemmConvReference times the oracle loops of
// gemm_reference_test.go on the same operands: the before to
// BenchmarkGemmConv's after.
func BenchmarkGemmConvReference(b *testing.B) { benchGemmConv(b, true) }
