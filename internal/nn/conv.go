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
// Forward runs one GEMM (tensor.MatMulWindows) whose patch rows are windows
// into one zero-padded copy of the input (the input itself under Valid):
// output (y, x) is column y·wp+x, and patch row r = (ic·KH+i)·KW+j, the
// weight layout's order, starts at offs[r] = (ic·hp+i)·wp+j. Every output
// gets the terms the im2col patch matrix used to hand it, +0 border terms
// included, in the same order through the same statement. Output rows that
// see only the longest run of bitwise-identical input rows are computed
// once and copied, so a community's zero tail costs one row. Backward forms
// gradOut·patchesᵀ and Wᵀ·gradOut over the non-zeros of gradOut only (every
// convolution feeds a ReLU and, further on, a pool, so most of it is zero),
// == to the dense products on finite inputs: every element gets their
// terms in their order through the same s += a*b statement, minus exact ±0
// products and +0 adds, which cannot change a sum that started at +0. All
// intermediates live in per-instance scratch laid out once per input shape.
type Conv2D struct {
	InC, OutC int
	KH, KW    int
	Pad       Padding

	weight *Param // shape OutC×InC×KH×KW flattened
	bias   *Param // length OutC

	// Scratch for an h×w input, padded to hp×wp; the GEMM's np columns run
	// from output (0, 0) to (oh-1, ow-1).
	h, w, hp, wp, np int
	offs             []int     // patch row r's window start in xp
	xp               []float64 // Same: the padded input (border never written); Valid: the input
	buf              []float64 // OutC×np GEMM output
	// gradOut's non-zeros in padded coordinates, channel by channel in
	// ascending position: channel oc's are (nzPos[i], nzVal[i]) for i in
	// [nzEnd[oc], nzEnd[oc+1]); union lists each position once, hit marks it.
	nzPos, nzEnd, union []int
	nzVal               []float64
	hit                 []bool
	row                 []float64 // one patch-gradient row, +0 between uses
	gp                  []float64 // Same: the padded input gradient
	out, gradIn         tensor.Tensor
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

// padAt is the index in the padded layout of input row y of channel ic.
func (c *Conv2D) padAt(ic, y int) int {
	po, pl := c.padOffsets()
	return (ic*c.hp+y+po)*c.wp + pl
}

// layout sizes the scratch for an h×w input, on the first Forward and
// again only when the shape changes: one fresh slab per element type, so
// the padded input's border starts at +0 and, never written, stays there.
func (c *Conv2D) layout(h, w int) {
	_, oh, ow := c.OutShape(c.InC, h, w)
	c.h, c.w, c.hp, c.wp = h, w, h, w
	pad := 0
	if c.Pad == Same {
		c.hp, c.wp = h+c.KH-1, w+c.KW-1
		pad = c.InC * c.hp * c.wp
	}
	c.np = (oh-1)*c.wp + ow
	p, kk := oh*ow, c.InC*c.KH*c.KW
	f := make([]float64, 2*pad+(c.OutC+1)*c.np+2*c.OutC*p+c.InC*h*w)
	n := make([]int, kk+c.OutC*p+c.OutC+1+c.np)
	floats := func(k int) []float64 { s := f[:k:k]; f = f[k:]; return s }
	ints := func(k int) []int { s := n[:k:k]; n = n[k:]; return s }
	c.xp, c.gp, c.buf, c.row, c.nzVal = floats(pad), floats(pad), floats(c.OutC*c.np), floats(c.np), floats(c.OutC*p)
	c.out = tensor.Tensor{C: c.OutC, H: oh, W: ow, Data: floats(c.OutC * p)}
	c.gradIn = tensor.Tensor{C: c.InC, H: h, W: w, Data: floats(c.InC * h * w)}
	c.offs, c.nzPos, c.nzEnd, c.union = ints(kk)[:0], ints(c.OutC*p), ints(c.OutC+1), ints(c.np)
	c.hit = make([]bool, c.np)
	for ic := range c.InC {
		for i := range c.KH {
			for j := range c.KW {
				c.offs = append(c.offs, (ic*c.hp+i)*c.wp+j)
			}
		}
	}
}

// sameRows returns the output rows [y0, y1) whose receptive fields lie in
// the longest run of padded input rows that are bitwise identical in every
// channel: each of them computes what row y0 does. A run too short to cover
// two output rows gives [oh-1, oh), which skips nothing.
func (c *Conv2D) sameRows(oh int) (int, int) {
	start, best, bestLen := 0, 0, 0
	for y := 1; y <= c.hp; y++ {
		if y < c.hp && c.rowsEqual(y-1, y) {
			continue
		}
		if y-start > bestLen {
			best, bestLen = start, y-start
		}
		start = y
	}
	if y1 := best + bestLen - c.KH + 1; y1-best >= 2 {
		return best, y1
	}
	return oh - 1, oh
}

// rowsEqual reports whether padded rows a and b hold the same bits in
// every channel.
func (c *Conv2D) rowsEqual(a, b int) bool {
	for ic := range c.InC {
		ch := c.xp[ic*c.hp*c.wp:]
		rb := ch[b*c.wp : (b+1)*c.wp]
		for i, v := range ch[a*c.wp : (a+1)*c.wp] {
			if math.Float64bits(v) != math.Float64bits(rb[i]) {
				return false
			}
		}
	}
	return true
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.C != c.InC {
		panic(fmt.Sprintf("nn: conv expected %d input channels, got %d", c.InC, x.C))
	}
	_, oh, ow := c.OutShape(x.C, x.H, x.W)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: conv kernel %dx%d larger than input %dx%d", c.KH, c.KW, x.H, x.W))
	}
	if c.offs == nil || x.H != c.h || x.W != c.w {
		c.layout(x.H, x.W)
	}
	if c.Pad == Same {
		for ic := range c.InC {
			for y := range x.H {
				copy(c.xp[c.padAt(ic, y):], x.Data[(ic*x.H+y)*x.W:(ic*x.H+y+1)*x.W])
			}
		}
	} else {
		c.xp = x.Data
	}
	y0, y1 := c.sameRows(oh)
	tensor.MatMulWindows(c.buf, c.np, c.weight.W, c.xp, c.offs, c.OutC, 0, y0*c.wp+ow)
	tensor.MatMulWindows(c.buf, c.np, c.weight.W, c.xp, c.offs, c.OutC, min(y1*c.wp, c.np), c.np)
	for oc := range c.OutC {
		b := c.bias.W[oc]
		out := c.out.Data[oc*oh*ow : (oc+1)*oh*ow]
		for y := range oh {
			dst := out[y*ow : (y+1)*ow]
			if y0 < y && y < y1 {
				copy(dst, out[y0*ow:])
				continue
			}
			for i, v := range c.buf[oc*c.np+y*c.wp:][:ow] {
				dst[i] = v + b
			}
		}
	}
	return &c.out
}

// Backward implements Layer, over the non-zeros of gradOut only.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	oh, ow := gradOut.H, gradOut.W
	kk := c.InC * c.KH * c.KW
	clear(c.hit)
	union := c.union[:0]
	n := 0
	for oc := range c.OutC {
		c.nzEnd[oc] = n
		g := 0.0
		for y := range oh {
			for x, v := range gradOut.Data[(oc*oh+y)*ow : (oc*oh+y+1)*ow] {
				if v != 0 {
					q := y*c.wp + x
					c.nzPos[n], c.nzVal[n] = q, v
					n++
					g += v
					if !c.hit[q] {
						c.hit[q] = true
						union = append(union, q)
					}
				}
			}
		}
		c.bias.G[oc] += g
	}
	c.nzEnd[c.OutC] = n
	gp := c.gradIn.Data
	if c.Pad == Same {
		gp = c.gp
	}
	clear(gp)
	row := c.row
	for r, off := range c.offs {
		xr := c.xp[off:]
		for oc := range c.OutC {
			pos := c.nzPos[c.nzEnd[oc]:c.nzEnd[oc+1]]
			val := c.nzVal[c.nzEnd[oc]:c.nzEnd[oc+1]]
			w, s := c.weight.W[oc*kk+r], 0.0
			for i, q := range pos {
				s += val[i] * xr[q]
				row[q] += w * val[i]
			}
			c.weight.G[oc*kk+r] += s
		}
		gr := gp[off:]
		for _, q := range union {
			gr[q] += row[q]
			row[q] = 0
		}
	}
	if c.Pad == Same {
		for ic := range c.InC {
			for y := range c.h {
				copy(c.gradIn.Data[(ic*c.h+y)*c.w:(ic*c.h+y+1)*c.w], gp[c.padAt(ic, y):])
			}
		}
	}
	return &c.gradIn
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.weight, c.bias} }

// Clone implements Layer: shares Params; every scratch buffer is left to
// the clone's first Forward, so the clone owns private memory.
func (c *Conv2D) Clone() Layer {
	return &Conv2D{InC: c.InC, OutC: c.OutC, KH: c.KH, KW: c.KW, Pad: c.Pad, weight: c.weight, bias: c.bias}
}
