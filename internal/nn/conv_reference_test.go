package nn

import (
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
// floating-point noise. gemmBackward, further down, is the dense GEMM
// backward the zero-skipping one replaced, held to it bit for bit. They
// allocate freely — never call them on a hot path.

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

// gemmBackward is Conv2D.Backward as it stood before it skipped the zeros
// of gradOut: two dense products over all of it — tensor.MatMulABTAcc for
// the weight gradient, the deleted tensor.MatMulATB restated as matMulATB
// for the patch gradient — and col2im. It is the == oracle of Backward. It
// reads the patch matrix the last Forward left and returns a fresh gradIn.
func (c *Conv2D) gemmBackward(gradOut *tensor.Tensor) *tensor.Tensor {
	x := c.lastIn
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
	tensor.MatMulABTAcc(c.weight.G, gradOut.Data, c.cols, c.OutC, kk, p)
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

// checkBackwardMatchesGEMM runs Backward and gemmBackward on the same
// layer, input and output gradient — gradOut non-zero at about the given
// density, and with special set, holding -0 among its zeros and subnormals
// among its values — from the same pre-filled gradients (±0 included), and
// requires weight.G, bias.G and gradIn to be the same bits.
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
	wantIn := c.gemmBackward(g)
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
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), the dense backward has %v (%#x)",
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

// FuzzConvBackward is TestConvBackwardMatchesGEMM over fuzzed geometry,
// density (of 255), special values and seed: geom picks one of CommCNN's
// seven convolutions or, past them, a randomized instance of the four
// shapes. The seed corpus is in testdata/fuzz/FuzzConvBackward.
func FuzzConvBackward(f *testing.F) {
	f.Fuzz(func(t *testing.T, geom, density uint8, special bool, seed int64) {
		tc := commCNNConvs[int(geom)%len(commCNNConvs)]
		if int(geom) >= len(commCNNConvs) {
			shapes := paperGeometries(rand.New(rand.NewSource(seed)))
			tc = shapes[int(geom)%len(shapes)]
		}
		checkBackwardMatchesGEMM(t, tc, float64(density)/255, special, seed)
	})
}
