package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"locec/internal/tensor"
)

// Retained convolution references. The path in conv.go is the production
// implementation. The direct loop nests below are the original definition
// of the operator and exist so the equivalence tests can assert, on every
// kernel geometry the paper uses, that the lowered path computes the same
// function (forward, input gradient, parameter gradients) to within
// floating-point noise. im2colForward and gemmBackward, further down, are
// the im2col + GEMM forward and the dense GEMM backward that the windowed,
// row-skipping forward and the zero-skipping backward replaced, held to
// them bit for bit. They allocate freely — never call them on a hot path.

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

// cols returns the im2col patch matrix of x (x itself for a 1×1 kernel).
func (c *Conv2D) cols(x *tensor.Tensor) []float64 {
	if c.pointwise() {
		return x.Data
	}
	_, oh, ow := c.OutShape(x.C, x.H, x.W)
	cols := make([]float64, c.InC*c.KH*c.KW*oh*ow)
	c.im2col(x, cols, oh, ow)
	return cols
}

// im2colForward is Conv2D.Forward as it stood before it read its patches
// as windows of one padded input and skipped identical rows: the im2col
// patch matrix, one tensor.MatMul, then the bias added to every output. It
// is the == oracle of Forward and returns a fresh tensor.
func (c *Conv2D) im2colForward(x *tensor.Tensor) *tensor.Tensor {
	_, oh, ow := c.OutShape(x.C, x.H, x.W)
	p := oh * ow
	out := tensor.NewTensor(c.OutC, oh, ow)
	tensor.MatMul(out.Data, c.weight.W, c.cols(x), c.OutC, c.InC*c.KH*c.KW, p)
	for oc := 0; oc < c.OutC; oc++ {
		b := c.bias.W[oc]
		row := out.Data[oc*p : (oc+1)*p]
		for i := range row {
			row[i] += b
		}
	}
	return out
}

// gemmBackward is Conv2D.Backward as it stood before it skipped the zeros
// of gradOut: two dense products over all of it — tensor.MatMulABTAcc for
// the weight gradient, the deleted tensor.MatMulATB restated as matMulATB
// for the patch gradient — and col2im. It is the == oracle of Backward. It
// builds the patch matrix of the forward input x and returns a fresh gradIn.
func (c *Conv2D) gemmBackward(x, gradOut *tensor.Tensor) *tensor.Tensor {
	oh, ow := gradOut.H, gradOut.W
	p := oh * ow
	kk := c.InC * c.KH * c.KW
	for oc := 0; oc < c.OutC; oc++ {
		g := 0.0
		for _, v := range gradOut.Data[oc*p : (oc+1)*p] {
			g += v
		}
		c.bias.G[oc] += g
	}
	gradIn := tensor.NewTensor(x.C, x.H, x.W)
	if c.pointwise() {
		// cols is the input itself; gradCols is the input gradient.
		tensor.MatMulABTAcc(c.weight.G, gradOut.Data, x.Data, c.OutC, kk, p)
		matMulATB(gradIn.Data, c.weight.W, gradOut.Data, c.OutC, kk, p)
		return gradIn
	}
	tensor.MatMulABTAcc(c.weight.G, gradOut.Data, c.cols(x), c.OutC, kk, p)
	gradCols := make([]float64, kk*p)
	matMulATB(gradCols, c.weight.W, gradOut.Data, c.OutC, kk, p)
	c.col2im(gradCols, gradIn, oh, ow)
	return gradIn
}

// matMulATB is dst = aᵀ·b for a m×k and b m×n, dst k×n: every element
// summed from 0 over ascending i, the order tensor.MatMulATB's tiles kept.
func matMulATB(dst, a, b []float64, m, k, n int) {
	clear(dst[:k*n])
	for i := 0; i < m; i++ {
		bi := b[i*n : (i+1)*n]
		for kk, av := range a[i*k : (i+1)*k] {
			ck := dst[kk*n : (kk+1)*n]
			for j, bv := range bi {
				ck[j] += av * bv
			}
		}
	}
}

// commCNNConvs are the seven convolutions of CommCNN at K = 20 and 13
// features, with the input each one sees: the three square ones (the last
// after a 2×2 pool), the wide and long kernels and their 1×1 followers.
var commCNNConvs = []convCase{
	{"sq1", 1, 8, 3, 3, Same, 20, 13},
	{"sq2", 8, 8, 3, 3, Same, 20, 13},
	{"sq3", 8, 8, 3, 3, Same, 10, 7},
	{"wd1", 1, 8, 1, 13, Valid, 20, 13},
	{"wd2", 8, 8, 1, 1, Valid, 20, 1},
	{"lg1", 1, 8, 20, 1, Valid, 20, 13},
	{"lg2", 8, 8, 1, 1, Valid, 1, 13},
}

// Row layouts plantRows writes: the runs of identical rows that Forward
// computes once, and the near misses it must not merge.
const (
	zeroTail    = iota // filled rows, then +0 rows: core.FeatureMatrix's layout
	middleRun          // a +0 run through the middle third
	topRun             // a +0 run from the top to half way
	shortRuns          // runs of 1, 2, 3, 1, … copies of one random row
	constRun           // filled rows, then one non-zero constant per channel, as ReLU(bias) gives
	signedZeros        // filled rows, then rows of −0 and +0 in turn, which must not merge
	nanRows            // filled rows, then NaN rows
	numRowPatterns
)

// plantRows overwrites whole rows of x, every channel at once, with the
// given layout; rows it leaves alone keep what x held.
func plantRows(x *tensor.Tensor, pattern, filled int) {
	h, w := x.H, x.W
	filled = min(filled, h)
	row := func(ic, y int) []float64 { return x.Data[(ic*h+y)*w : (ic*h+y+1)*w] }
	set := func(y int, v func(ic int) float64) {
		for ic := range x.C {
			r := row(ic, y)
			for i := range r {
				r[i] = v(ic)
			}
		}
	}
	zero := func(int) float64 { return 0 }
	switch pattern {
	case zeroTail, constRun, signedZeros, nanRows:
		for y := filled; y < h; y++ {
			switch pattern {
			case zeroTail:
				set(y, zero)
			case constRun:
				set(y, func(ic int) float64 { return 0.25 + float64(ic) })
			case signedZeros:
				set(y, func(int) float64 { return math.Copysign(0, float64((y-filled)%2*2-1)) })
			case nanRows:
				set(y, func(int) float64 { return math.NaN() })
			}
		}
	case middleRun:
		for y := h / 3; y < 2*h/3; y++ {
			set(y, zero)
		}
	case topRun:
		for y := range h / 2 {
			set(y, zero)
		}
	case shortRuns:
		for start, g := 0, 0; start < h; start, g = start+1+g%3, g+1 {
			for y := start + 1; y < min(start+1+g%3, h); y++ {
				for ic := range x.C {
					copy(row(ic, y), row(ic, start))
				}
			}
		}
	}
}

// tailFills are the member counts the zero-tail layouts are planted with:
// empty, the one- and two-member communities most are, and K = 20 nearly
// or entirely full.
var tailFills = []int{0, 1, 2, 5, 18, 19, 20}

// forwardCases are CommCNN's seven convolutions and three randomized
// instances of each of the four kernel shapes.
func forwardCases() []convCase {
	cases := append([]convCase(nil), commCNNConvs...)
	for trial := int64(0); trial < 3; trial++ {
		cases = append(cases, paperGeometries(rand.New(rand.NewSource(300+trial)))...)
	}
	return cases
}

// newTestConv builds the layer of tc with a random bias (NewConv2D leaves
// it at 0, which would hide a missing bias add).
func newTestConv(tc convCase, rng *rand.Rand) *Conv2D {
	c := NewConv2D("c", tc.inC, tc.outC, tc.kh, tc.kw, tc.pad, rng)
	for i := range c.bias.W {
		c.bias.W[i] = rng.NormFloat64()
	}
	return c
}

// checkForwardMatchesIm2col plants a row layout in a random input and
// requires Forward to be the same bits as im2colForward.
func checkForwardMatchesIm2col(t *testing.T, c *Conv2D, tc convCase, pattern, filled int, rng *rand.Rand) {
	t.Helper()
	x := randTensor(tc.inC, tc.h, tc.w, rng)
	plantRows(x, pattern, filled)
	want := c.im2colForward(x)
	requireBits(t, fmt.Sprintf("%s/pattern %d/filled %d/forward", tc.name, pattern, filled), c.Forward(x).Data, want.Data)
}

// TestConvForwardMatchesIm2col pins the windowed, row-skipping Forward to
// the im2col + GEMM forward it replaced, bit for bit, on CommCNN's seven
// convolutions and randomized instances of the four kernel shapes, under
// every row layout of plantRows: zero tails of every fill, runs in the
// middle and at the top, runs of 1–3, a constant non-zero run, signed
// zeros and NaN rows. One layer per geometry sees every layout in turn,
// so no copied row may leak from one input into the next.
func TestConvForwardMatchesIm2col(t *testing.T) {
	for i, tc := range forwardCases() {
		rng := rand.New(rand.NewSource(int64(i)))
		c := newTestConv(tc, rng)
		for pattern := range numRowPatterns {
			for _, filled := range tailFills {
				checkForwardMatchesIm2col(t, c, tc, pattern, filled, rng)
			}
		}
	}
}

// TestConvSkipsIdenticalRows pins which output rows Forward computes once
// and copies, on sq1 (3×3 Same, 20×13): a zero tail of K−filled rows is one
// run with the bottom padding row, so output rows filled+2 … 19 copy row
// filled+1 while it covers two of them; rows of −0 and +0 in turn are no
// run at all.
func TestConvSkipsIdenticalRows(t *testing.T) {
	tc := commCNNConvs[0]
	rng := rand.New(rand.NewSource(1))
	c := newTestConv(tc, rng)
	for _, want := range []struct{ pattern, filled, y0, y1 int }{
		{zeroTail, 0, 0, 20}, {zeroTail, 5, 6, 20}, {zeroTail, 17, 18, 20},
		{zeroTail, 18, 19, 20}, {zeroTail, 20, 19, 20}, {signedZeros, 2, 19, 20},
		{constRun, 5, 6, 19}, {topRun, 0, 0, 9},
	} {
		x := randTensor(tc.inC, tc.h, tc.w, rng)
		plantRows(x, want.pattern, want.filled)
		c.Forward(x)
		if y0, y1 := c.sameRows(tc.h); y0 != want.y0 || y1 != want.y1 {
			t.Errorf("pattern %d, filled %d: output rows [%d, %d) share one computation, want [%d, %d)",
				want.pattern, want.filled, y0, y1, want.y0, want.y1)
		}
	}
}

// fuzzCase picks one of CommCNN's seven convolutions or, past them, a
// randomized instance of the four kernel shapes.
func fuzzCase(geom uint8, seed int64) convCase {
	if int(geom) < len(commCNNConvs) {
		return commCNNConvs[geom]
	}
	shapes := paperGeometries(rand.New(rand.NewSource(seed)))
	return shapes[int(geom)%len(shapes)]
}

// FuzzConvForward is TestConvForwardMatchesIm2col over fuzzed geometry,
// row layout, fill and seed. The seed corpus is in
// testdata/fuzz/FuzzConvForward.
func FuzzConvForward(f *testing.F) {
	f.Fuzz(func(t *testing.T, geom, pattern, filled uint8, seed int64) {
		tc, rng := fuzzCase(geom, seed), rand.New(rand.NewSource(seed))
		c := newTestConv(tc, rng)
		for pass := 0; pass < 2; pass++ { // the second pass reuses the scratch
			checkForwardMatchesIm2col(t, c, tc, int(pattern)%numRowPatterns, int(filled), rng)
		}
	})
}

// checkBackwardMatchesGEMM runs Backward and gemmBackward on the same
// layer, input and output gradient — gradOut non-zero at about the given
// density, and with special set, holding -0 among its zeros and subnormals
// among its values — from the same pre-filled gradients (±0 included), and
// requires weight.G, bias.G and gradIn to be the same bits. The input is a
// ReLU's output with one of plantRows' layouts on top, so Backward follows
// a Forward that skipped rows. NaN rows are left out: the dense backward
// multiplies them by gradOut's zeros and Backward does not, and finite
// inputs are its contract.
func checkBackwardMatchesGEMM(t *testing.T, tc convCase, density float64, special bool, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := NewConv2D("c", tc.inC, tc.outC, tc.kh, tc.kw, tc.pad, rng)
	x := randTensor(tc.inC, tc.h, tc.w, rng)
	for i := range x.Data {
		if rng.Intn(2) == 0 {
			x.Data[i] = 0 // a ReLU's output
		}
	}
	if pattern := rng.Intn(numRowPatterns); pattern != nanRows {
		plantRows(x, pattern, tailFills[rng.Intn(len(tailFills))])
	}
	_, oh, ow := c.OutShape(tc.inC, tc.h, tc.w)
	g := tensor.NewTensor(tc.outC, oh, ow)
	for i := range g.Data {
		switch {
		case rng.Float64() < density:
			g.Data[i] = rng.NormFloat64()
			if special && rng.Intn(4) == 0 {
				g.Data[i] = math.Copysign(float64(1+rng.Intn(1<<20))*math.SmallestNonzeroFloat64, g.Data[i])
			}
		case special && rng.Intn(2) == 0:
			g.Data[i] = math.Copysign(0, -1)
		}
	}
	prefill := func(s []float64) []float64 {
		for i := range s {
			switch rng.Intn(4) {
			case 0:
				s[i] = math.Copysign(0, -1)
			case 1:
				s[i] = 0
			default:
				s[i] = rng.NormFloat64()
			}
		}
		return append([]float64(nil), s...)
	}
	wg0, bg0 := prefill(c.weight.G), prefill(c.bias.G)

	c.Forward(x)
	wantIn := c.gemmBackward(x, g)
	wantWG := append([]float64(nil), c.weight.G...)
	wantBG := append([]float64(nil), c.bias.G...)
	for pass := 0; pass < 2; pass++ { // the second pass reuses the scratch
		copy(c.weight.G, wg0)
		copy(c.bias.G, bg0)
		gotIn := c.Backward(g)
		requireBits(t, tc.name+"/weight.G", c.weight.G, wantWG)
		requireBits(t, tc.name+"/bias.G", c.bias.G, wantBG)
		requireBits(t, tc.name+"/gradIn", gotIn.Data, wantIn.Data)
	}
}

func requireBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, the oracle has %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), the oracle has %v (%#x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestConvBackwardMatchesGEMM pins the zero-skipping Backward to the dense
// GEMM backward it replaced, bit for bit, on CommCNN's seven convolutions
// and on randomized instances of the four kernel shapes, at gradient
// densities from none to all, with and without signed zeros and
// subnormals in gradOut.
func TestConvBackwardMatchesGEMM(t *testing.T) {
	cases := append([]convCase(nil), commCNNConvs...)
	for trial := int64(0); trial < 3; trial++ {
		cases = append(cases, paperGeometries(rand.New(rand.NewSource(200+trial)))...)
	}
	for i, tc := range cases {
		for _, density := range []float64{0, 0.06, 0.25, 0.5, 1} {
			for _, special := range []bool{false, true} {
				checkBackwardMatchesGEMM(t, tc, density, special, int64(i))
			}
		}
	}
}

// FuzzConvBackward is TestConvBackwardMatchesGEMM over fuzzed geometry
// (fuzzCase), density (of 255), special values and seed. The seed corpus
// is in testdata/fuzz/FuzzConvBackward.
func FuzzConvBackward(f *testing.F) {
	f.Fuzz(func(t *testing.T, geom, density uint8, special bool, seed int64) {
		checkBackwardMatchesGEMM(t, fuzzCase(geom, seed), float64(density)/255, special, seed)
	})
}
