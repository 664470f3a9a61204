package nn

import "locec/internal/tensor"

// Retained naive convolution reference. The im2col+GEMM path in conv.go is
// the production implementation; these direct loop nests are the original
// definition of the operator and exist so the equivalence tests can assert,
// on every kernel geometry the paper uses, that the lowered path computes
// the same function (forward, input gradient, parameter gradients) to
// within floating-point noise. They allocate freely — never call them on a
// hot path.

// naiveForward computes the convolution output with direct loops.
func (c *Conv2D) naiveForward(x *tensor.Tensor) *tensor.Tensor {
	_, oh, ow := c.OutShape(x.C, x.H, x.W)
	po, pl := c.padOffsets()
	out := tensor.NewTensor(c.OutC, oh, ow)
	for oc := 0; oc < c.OutC; oc++ {
		b := c.bias.W[oc]
		for y := 0; y < oh; y++ {
			for xw := 0; xw < ow; xw++ {
				s := b
				for ic := 0; ic < c.InC; ic++ {
					for i := 0; i < c.KH; i++ {
						iy := y + i - po
						if iy < 0 || iy >= x.H {
							continue
						}
						for j := 0; j < c.KW; j++ {
							ix := xw + j - pl
							if ix < 0 || ix >= x.W {
								continue
							}
							s += c.weight.W[c.wIdx(oc, ic, i, j)] * x.At(ic, iy, ix)
						}
					}
				}
				out.Set(oc, y, xw, s)
			}
		}
	}
	return out
}

// naiveBackward computes the input gradient and accumulates parameter
// gradients with direct loops, given the memoized forward input x.
func (c *Conv2D) naiveBackward(x, gradOut *tensor.Tensor) *tensor.Tensor {
	po, pl := c.padOffsets()
	gradIn := tensor.NewTensor(x.C, x.H, x.W)
	for oc := 0; oc < c.OutC; oc++ {
		for y := 0; y < gradOut.H; y++ {
			for xw := 0; xw < gradOut.W; xw++ {
				g := gradOut.At(oc, y, xw)
				if g == 0 {
					continue
				}
				c.bias.G[oc] += g
				for ic := 0; ic < c.InC; ic++ {
					for i := 0; i < c.KH; i++ {
						iy := y + i - po
						if iy < 0 || iy >= x.H {
							continue
						}
						for j := 0; j < c.KW; j++ {
							ix := xw + j - pl
							if ix < 0 || ix >= x.W {
								continue
							}
							wi := c.wIdx(oc, ic, i, j)
							c.weight.G[wi] += g * x.At(ic, iy, ix)
							gradIn.Data[gradIn.Idx(ic, iy, ix)] += g * c.weight.W[wi]
						}
					}
				}
			}
		}
	}
	return gradIn
}
