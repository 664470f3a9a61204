package nn

import (
	"fmt"
	"math"
	"math/rand"

	"locec/internal/tensor"
)

// Padding selects how Conv2D handles borders.
type Padding int

const (
	// Valid applies the kernel only at fully-overlapping positions:
	// output is (H-KH+1) × (W-KW+1).
	Valid Padding = iota
	// Same zero-pads so the output spatial size equals the input size
	// (stride 1 only).
	Same
)

// Conv2D is a stride-1 2-D convolution (cross-correlation) with an
// arbitrary rectangular kernel and per-output-channel bias. It supports the
// paper's square (3×3), wide (1×F), long (k×1) and pointwise (1×1) kernels.
//
// Forward lowers the input to an im2col patch matrix and runs one GEMM
// (tensor.MatMul), so all four kernel shapes share the same tight inner
// loop; 1×1 kernels skip the lowering and multiply against the input
// directly. Backward forms gradOut·colsᵀ and Wᵀ·gradOut over the non-zeros
// of gradOut only (every convolution feeds a ReLU and, further on, a pool,
// so most of it is zero), == to the dense products on finite inputs:
// every element gets their terms in their order through the same s += a*b
// statement, minus exact ±0 products, which cannot change a sum that
// started at +0. All intermediates live in per-instance scratch buffers
// reused across calls.
type Conv2D struct {
	InC, OutC int
	KH, KW    int
	Pad       Padding

	weight *Param // shape OutC×InC×KH×KW flattened
	bias   *Param // length OutC

	lastIn *tensor.Tensor // memoized input for Backward

	// Scratch: the im2col patch matrix is (InC·KH·KW) × (OH·OW) with the
	// patch-row index ordered (ic, kh, kw) to match the weight layout, so
	// forward is out = W·cols (+bias) and the GEMM accumulation order
	// matches the naive loop nest exactly.
	cols     []float64
	gradCols []float64
	// gradOut's non-zeros, channel by channel in ascending position:
	// channel oc's are (nzPos[i], nzVal[i]) for i in [nzEnd[oc], nzEnd[oc+1]).
	nzPos  []int
	nzVal  []float64
	nzEnd  []int
	out    *tensor.Tensor
	gradIn *tensor.Tensor
}

// NewConv2D creates the layer and He-initializes its weights from rng.
func NewConv2D(name string, inC, outC, kh, kw int, pad Padding, rng *rand.Rand) *Conv2D {
	if inC <= 0 || outC <= 0 || kh <= 0 || kw <= 0 {
		panic(fmt.Sprintf("nn: bad conv shape in=%d out=%d k=%dx%d", inC, outC, kh, kw))
	}
	c := &Conv2D{
		InC: inC, OutC: outC, KH: kh, KW: kw, Pad: pad,
		weight: newParam(name+".w", outC*inC*kh*kw),
		bias:   newParam(name+".b", outC),
	}
	std := math.Sqrt(2.0 / float64(inC*kh*kw))
	tensor.RandInit(c.weight.W, std, rng)
	return c
}

func (c *Conv2D) wIdx(oc, ic, i, j int) int {
	return ((oc*c.InC+ic)*c.KH+i)*c.KW + j
}

// OutShape implements Layer.
func (c *Conv2D) OutShape(_, h, w int) (int, int, int) {
	if c.Pad == Same {
		return c.OutC, h, w
	}
	return c.OutC, h - c.KH + 1, w - c.KW + 1
}

// padOffsets returns the top/left zero-padding amounts.
func (c *Conv2D) padOffsets() (int, int) {
	if c.Pad == Same {
		return (c.KH - 1) / 2, (c.KW - 1) / 2
	}
	return 0, 0
}

// pointwise reports whether the kernel is 1×1, in which case the im2col
// matrix is the input itself and the lowering is skipped entirely.
func (c *Conv2D) pointwise() bool { return c.KH == 1 && c.KW == 1 }

// im2col writes the patch matrix for x into cols: row r = (ic·KH+i)·KW+j
// holds, for every output position (y,xw), the input value at
// (ic, y+i-po, xw+j-pl), with zeros where the kernel overhangs the border.
// Each row is filled with row-wise copies of the input, so the cost is a
// handful of memmoves per kernel tap rather than per-element address math.
func (c *Conv2D) im2col(x *tensor.Tensor, cols []float64, oh, ow int) {
	po, pl := c.padOffsets()
	p := oh * ow
	r := 0
	for ic := 0; ic < c.InC; ic++ {
		chanBase := ic * x.H * x.W
		for i := 0; i < c.KH; i++ {
			for j := 0; j < c.KW; j++ {
				dst := cols[r*p : (r+1)*p]
				r++
				shift := j - pl
				lo := max(0, -shift)
				hi := min(ow, x.W-shift)
				if hi < lo {
					hi = lo
				}
				for y := 0; y < oh; y++ {
					iy := y + i - po
					drow := dst[y*ow : (y+1)*ow]
					if iy < 0 || iy >= x.H {
						for t := range drow {
							drow[t] = 0
						}
						continue
					}
					srow := x.Data[chanBase+iy*x.W : chanBase+(iy+1)*x.W]
					for t := 0; t < lo; t++ {
						drow[t] = 0
					}
					copy(drow[lo:hi], srow[lo+shift:hi+shift])
					for t := hi; t < ow; t++ {
						drow[t] = 0
					}
				}
			}
		}
	}
}

// col2im scatter-adds the patch-matrix gradient back onto the input
// gradient — the exact adjoint of im2col (border zeros receive nothing).
func (c *Conv2D) col2im(gradCols []float64, gradIn *tensor.Tensor, oh, ow int) {
	po, pl := c.padOffsets()
	p := oh * ow
	r := 0
	for ic := 0; ic < c.InC; ic++ {
		chanBase := ic * gradIn.H * gradIn.W
		for i := 0; i < c.KH; i++ {
			for j := 0; j < c.KW; j++ {
				src := gradCols[r*p : (r+1)*p]
				r++
				shift := j - pl
				lo := max(0, -shift)
				hi := min(ow, gradIn.W-shift)
				if hi < lo {
					hi = lo
				}
				for y := 0; y < oh; y++ {
					iy := y + i - po
					if iy < 0 || iy >= gradIn.H {
						continue
					}
					srow := src[y*ow : (y+1)*ow]
					irow := gradIn.Data[chanBase+iy*gradIn.W : chanBase+(iy+1)*gradIn.W]
					for t := lo; t < hi; t++ {
						irow[t+shift] += srow[t]
					}
				}
			}
		}
	}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.C != c.InC {
		panic(fmt.Sprintf("nn: conv expected %d input channels, got %d", c.InC, x.C))
	}
	c.lastIn = x
	_, oh, ow := c.OutShape(x.C, x.H, x.W)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: conv kernel %dx%d larger than input %dx%d", c.KH, c.KW, x.H, x.W))
	}
	p := oh * ow
	kk := c.InC * c.KH * c.KW
	cols := x.Data
	if !c.pointwise() {
		c.cols = tensor.EnsureFloats(c.cols, kk*p)
		c.im2col(x, c.cols, oh, ow)
		cols = c.cols
	}
	c.out = tensor.EnsureTensor(c.out, c.OutC, oh, ow)
	tensor.MatMul(c.out.Data, c.weight.W, cols, c.OutC, kk, p)
	for oc := 0; oc < c.OutC; oc++ {
		b := c.bias.W[oc]
		row := c.out.Data[oc*p : (oc+1)*p]
		for i := range row {
			row[i] += b
		}
	}
	return c.out
}

// Backward implements Layer, over the non-zeros of gradOut only.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	x := c.lastIn
	oh, ow := gradOut.H, gradOut.W
	p := oh * ow
	kk := c.InC * c.KH * c.KW
	c.nzPos = ensureInts(c.nzPos, c.OutC*p)
	c.nzVal = tensor.EnsureFloats(c.nzVal, c.OutC*p)
	c.nzEnd = ensureInts(c.nzEnd, c.OutC+1)
	n := 0
	for oc := 0; oc < c.OutC; oc++ {
		c.nzEnd[oc] = n
		g := 0.0
		for q, v := range gradOut.Data[oc*p : (oc+1)*p] {
			if v != 0 {
				c.nzPos[n], c.nzVal[n] = q, v
				n++
				g += v
			}
		}
		c.bias.G[oc] += g
	}
	c.nzEnd[c.OutC] = n
	c.gradIn = tensor.EnsureTensor(c.gradIn, x.C, x.H, x.W)
	// A 1×1 kernel's cols is the input itself, its gradCols gradIn.
	cols, gradCols := x.Data, c.gradIn.Data
	if !c.pointwise() {
		c.gradCols = tensor.EnsureFloats(c.gradCols, kk*p)
		cols, gradCols = c.cols, c.gradCols
	}
	clear(gradCols)
	for r := 0; r < kk; r++ {
		crow, grow := cols[r*p:(r+1)*p], gradCols[r*p:(r+1)*p]
		for oc := 0; oc < c.OutC; oc++ {
			pos := c.nzPos[c.nzEnd[oc]:c.nzEnd[oc+1]]
			val := c.nzVal[c.nzEnd[oc]:c.nzEnd[oc+1]]
			w, s := c.weight.W[oc*kk+r], 0.0
			for i, q := range pos {
				s += val[i] * crow[q]
				grow[q] += w * val[i]
			}
			c.weight.G[oc*kk+r] += s
		}
	}
	if !c.pointwise() {
		c.gradIn.Zero()
		c.col2im(c.gradCols, c.gradIn, oh, ow)
	}
	return c.gradIn
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.weight, c.bias} }

// Clone implements Layer: shares Params; activation state and every
// scratch buffer are reset so the clone owns private memory.
func (c *Conv2D) Clone() Layer {
	cp := *c
	cp.lastIn = nil
	cp.cols, cp.gradCols = nil, nil
	cp.nzPos, cp.nzVal, cp.nzEnd = nil, nil, nil
	cp.out, cp.gradIn = nil, nil
	return &cp
}
