package nn

import (
	"math"

	"locec/internal/tensor"
)

// MaxPool2 is a 2×2 max pooling layer with stride 2. Odd trailing rows or
// columns are covered by a final partial window so no activation is lost
// (ceil-mode pooling), which matters for the small LoCEC feature matrices.
// A window with no value above −Inf (all NaN or −Inf, which a diverging fit
// reaches) outputs −Inf and passes its gradient to its first cell; the
// same holds for GlobalMaxPool's one window per channel.
type MaxPool2 struct {
	lastIn *tensor.Tensor
	argmax []int // flat input index chosen per output cell
	out    *tensor.Tensor
	gradIn *tensor.Tensor
}

// NewMaxPool2 creates the layer.
func NewMaxPool2() *MaxPool2 { return &MaxPool2{} }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// OutShape implements Layer.
func (p *MaxPool2) OutShape(c, h, w int) (int, int, int) {
	return c, ceilDiv(h, 2), ceilDiv(w, 2)
}

// Forward implements Layer.
func (p *MaxPool2) Forward(x *tensor.Tensor) *tensor.Tensor {
	p.lastIn = x
	oc, oh, ow := p.OutShape(x.C, x.H, x.W)
	p.out = tensor.EnsureTensor(p.out, oc, oh, ow)
	p.argmax = ensureInts(p.argmax, oc*oh*ow)
	for c := 0; c < x.C; c++ {
		for y := 0; y < oh; y++ {
			for xw := 0; xw < ow; xw++ {
				best, bestIdx := math.Inf(-1), x.Idx(c, 2*y, 2*xw)
				for dy := 0; dy < 2; dy++ {
					iy := 2*y + dy
					if iy >= x.H {
						break
					}
					for dx := 0; dx < 2; dx++ {
						ix := 2*xw + dx
						if ix >= x.W {
							break
						}
						v := x.At(c, iy, ix)
						if v > best {
							best = v
							bestIdx = x.Idx(c, iy, ix)
						}
					}
				}
				oi := p.out.Idx(c, y, xw)
				p.out.Data[oi] = best
				p.argmax[oi] = bestIdx
			}
		}
	}
	return p.out
}

// Backward implements Layer.
func (p *MaxPool2) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	p.gradIn = tensor.EnsureTensor(p.gradIn, p.lastIn.C, p.lastIn.H, p.lastIn.W)
	p.gradIn.Zero()
	for oi, gi := range p.argmax {
		p.gradIn.Data[gi] += gradOut.Data[oi]
	}
	return p.gradIn
}

// Params implements Layer.
func (p *MaxPool2) Params() []*Param { return nil }

// Clone implements Layer.
func (p *MaxPool2) Clone() Layer { return NewMaxPool2() }

// GlobalMaxPool reduces each channel's feature map to its single maximum
// activation, producing a (C, 1, 1) tensor. Used after the wide and long
// convolution branches of CommCNN.
type GlobalMaxPool struct {
	lastIn *tensor.Tensor
	argmax []int
	out    *tensor.Tensor
	gradIn *tensor.Tensor
}

// NewGlobalMaxPool creates the layer.
func NewGlobalMaxPool() *GlobalMaxPool { return &GlobalMaxPool{} }

// OutShape implements Layer.
func (p *GlobalMaxPool) OutShape(c, _, _ int) (int, int, int) { return c, 1, 1 }

// Forward implements Layer.
func (p *GlobalMaxPool) Forward(x *tensor.Tensor) *tensor.Tensor {
	p.lastIn = x
	p.out = tensor.EnsureTensor(p.out, x.C, 1, 1)
	p.argmax = ensureInts(p.argmax, x.C)
	hw := x.H * x.W
	for c := 0; c < x.C; c++ {
		base := c * hw
		best, bestIdx := math.Inf(-1), base
		for i := 0; i < hw; i++ {
			if v := x.Data[base+i]; v > best {
				best = v
				bestIdx = base + i
			}
		}
		p.out.Data[c] = best
		p.argmax[c] = bestIdx
	}
	return p.out
}

// Backward implements Layer.
func (p *GlobalMaxPool) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	p.gradIn = tensor.EnsureTensor(p.gradIn, p.lastIn.C, p.lastIn.H, p.lastIn.W)
	p.gradIn.Zero()
	for c := 0; c < p.lastIn.C; c++ {
		p.gradIn.Data[p.argmax[c]] += gradOut.Data[c]
	}
	return p.gradIn
}

// Params implements Layer.
func (p *GlobalMaxPool) Params() []*Param { return nil }

// Clone implements Layer.
func (p *GlobalMaxPool) Clone() Layer { return NewGlobalMaxPool() }
