package nn

import (
	"fmt"
	"math"
	"math/rand"

	"locec/internal/tensor"
)

// ReLU is the rectified linear activation, applied element-wise. About
// half of its inputs are ≤ 0, so both passes select with a bit mask rather
// than a branch: v's bits AND all-ones where v > 0, AND zero elsewhere —
// +0 for a negative, −0 or NaN input, as a branch would give.
type ReLU struct {
	mask   []uint8 // 1 where the input was positive
	out    *tensor.Tensor
	gradIn *tensor.Tensor
}

// NewReLU creates the layer.
func NewReLU() *ReLU { return &ReLU{} }

// OutShape implements Layer.
func (r *ReLU) OutShape(c, h, w int) (int, int, int) { return c, h, w }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	r.out = tensor.EnsureTensor(r.out, x.C, x.H, x.W)
	r.mask = ensureU8(r.mask, len(x.Data))
	out, mask := r.out.Data[:len(x.Data)], r.mask[:len(x.Data)]
	for i, v := range x.Data {
		var m uint8
		if v > 0 {
			m = 1
		}
		mask[i] = m
		out[i] = math.Float64frombits(math.Float64bits(v) & -uint64(m))
	}
	return r.out
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	r.gradIn = tensor.EnsureTensor(r.gradIn, gradOut.C, gradOut.H, gradOut.W)
	g, gradIn := gradOut.Data[:len(r.mask)], r.gradIn.Data[:len(r.mask)]
	for i, m := range r.mask {
		gradIn[i] = math.Float64frombits(math.Float64bits(g[i]) & -uint64(m))
	}
	return r.gradIn
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Clone implements Layer.
func (r *ReLU) Clone() Layer { return NewReLU() }

// Flatten reshapes any (C,H,W) tensor to (1,1,C*H*W). It is a no-op on the
// underlying data but records the input shape for Backward.
type Flatten struct {
	c, h, w int
	out     *tensor.Tensor
	gradIn  *tensor.Tensor
}

// NewFlatten creates the layer.
func NewFlatten() *Flatten { return &Flatten{} }

// OutShape implements Layer.
func (f *Flatten) OutShape(c, h, w int) (int, int, int) { return 1, 1, c * h * w }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	f.c, f.h, f.w = x.C, x.H, x.W
	f.out = tensor.EnsureTensor(f.out, 1, 1, x.Size())
	copy(f.out.Data, x.Data)
	return f.out
}

// Backward implements Layer.
func (f *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	f.gradIn = tensor.EnsureTensor(f.gradIn, f.c, f.h, f.w)
	copy(f.gradIn.Data, gradOut.Data)
	return f.gradIn
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Clone implements Layer.
func (f *Flatten) Clone() Layer { return NewFlatten() }

// Dense is a fully connected layer over the flattened input vector,
// producing a (1,1,Out) tensor.
type Dense struct {
	In, Out int
	weight  *Param // Out×In row-major
	bias    *Param
	lastIn  *tensor.Tensor
	out     *tensor.Tensor
	gradIn  *tensor.Tensor
}

// NewDense creates the layer and He-initializes its weights from rng.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: bad dense shape %d->%d", in, out))
	}
	d := &Dense{
		In: in, Out: out,
		weight: newParam(name+".w", out*in),
		bias:   newParam(name+".b", out),
	}
	tensor.RandInit(d.weight.W, math.Sqrt(2.0/float64(in)), rng)
	return d
}

// OutShape implements Layer.
func (d *Dense) OutShape(c, h, w int) (int, int, int) {
	if c*h*w != d.In {
		panic(fmt.Sprintf("nn: dense expected %d inputs, got %d", d.In, c*h*w))
	}
	return 1, 1, d.Out
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Size() != d.In {
		panic(fmt.Sprintf("nn: dense expected %d inputs, got %d", d.In, x.Size()))
	}
	d.lastIn = x
	d.out = tensor.EnsureTensor(d.out, 1, 1, d.Out)
	for o := 0; o < d.Out; o++ {
		s := d.bias.W[o]
		row := d.weight.W[o*d.In : (o+1)*d.In]
		for i, v := range x.Data {
			s += row[i] * v
		}
		d.out.Data[o] = s
	}
	return d.out
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	d.gradIn = tensor.EnsureTensor(d.gradIn, d.lastIn.C, d.lastIn.H, d.lastIn.W)
	d.gradIn.Zero()
	for o := 0; o < d.Out; o++ {
		g := gradOut.Data[o]
		if g == 0 {
			continue
		}
		d.bias.G[o] += g
		row := d.weight.W[o*d.In : (o+1)*d.In]
		grow := d.weight.G[o*d.In : (o+1)*d.In]
		for i, v := range d.lastIn.Data {
			grow[i] += g * v
			d.gradIn.Data[i] += g * row[i]
		}
	}
	return d.gradIn
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.weight, d.bias} }

// Clone implements Layer.
func (d *Dense) Clone() Layer {
	cp := *d
	cp.lastIn = nil
	cp.out, cp.gradIn = nil, nil
	return &cp
}
