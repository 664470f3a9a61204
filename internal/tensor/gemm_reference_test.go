package tensor

import (
	"math/rand"
	"slices"
	"testing"
)

// The general GEMM loops as they stood before the tile kernels, moved here
// verbatim (zero skip and blocking included). They are the oracle for the
// per-element summation order: the product kernels must hand every
// destination element the same terms in the same order, so their results
// are == to these, not merely close.

// gemmBlockK × gemmBlockJ was the B block of the old forward loop. The
// tile kernels do not block, so these only shape the oracle's traversal.
const (
	gemmBlockK = 128
	gemmBlockJ = 512
)

// matMulAccReference is dst += a·b (a m×k, b k×n): one axpy per (i, kk).
func matMulAccReference(dst, a, b []float64, m, k, n int) {
	for k0 := 0; k0 < k; k0 += gemmBlockK {
		k1 := min(k0+gemmBlockK, k)
		for j0 := 0; j0 < n; j0 += gemmBlockJ {
			j1 := min(j0+gemmBlockJ, n)
			for i := 0; i < m; i++ {
				ci := dst[i*n+j0 : i*n+j1]
				ai := a[i*k : (i+1)*k]
				for kk := k0; kk < k1; kk++ {
					av := ai[kk]
					if av == 0 {
						continue
					}
					bk := b[kk*n+j0 : kk*n+j1]
					for j, bv := range bk {
						ci[j] += av * bv
					}
				}
			}
		}
	}
}

// matMulABTAccReference is dst += a·bᵀ (a m×p, b n×p): one dot product
// through a single accumulator per element.
func matMulABTAccReference(dst, a, b []float64, m, n, p int) {
	for i := 0; i < m; i++ {
		ai := a[i*p : (i+1)*p]
		di := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b[j*p : (j+1)*p]
			s := 0.0
			for t, av := range ai {
				s += av * bj[t]
			}
			di[j] += s
		}
	}
}

// commCNNShapes are the seven products of one CommCNN sample at K = 20,
// 13 features, as OutC × InC·KH·KW × OH·OW: the three square
// convolutions, the wide and long kernels and their two pointwise
// followers.
var commCNNShapes = [][3]int{
	{8, 9, 260}, {8, 72, 260}, {8, 72, 70}, {8, 13, 20}, {8, 20, 13}, {8, 8, 20}, {8, 8, 13},
}

// plantZeros overwrites about a quarter of s with exact zeros: the oracle
// loops skip those terms, the tiles multiply them.
func plantZeros(s []float64, rng *rand.Rand) []float64 {
	for i := range s {
		if rng.Intn(4) == 0 {
			s[i] = 0
		}
	}
	return s
}

func requireSame(t *testing.T, name string, m, k, n int, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s (%d,%d,%d): element %d is %v, reference has %v", name, m, k, n, i, got[i], want[i])
		}
	}
}

// checkTilesAgainstReference runs the four entry points at an oc×kk×p
// shape — MatMul as W·cols, MatMulWindows as Conv2D's forward over windows
// of one input, MatMulABTAcc as grad·colsᵀ, and the last again with
// logreg's gathered rows — and requires every element == the oracle's.
func checkTilesAgainstReference(t *testing.T, rng *rand.Rand, oc, kk, p int) {
	t.Helper()
	w := plantZeros(randSlice(oc*kk, rng), rng)
	cols, grad := randSlice(kk*p, rng), plantZeros(randSlice(oc*p, rng), rng)

	got, want := randSlice(oc*p, rng), make([]float64, oc*p) // MatMul overwrites garbage
	MatMul(got, w, cols, oc, kk, p)
	matMulAccReference(want, w, cols, oc, kk, p)
	requireSame(t, "MatMul", oc, kk, p, got, want)

	// The windowed form reads the same B rows out of an arena at scattered,
	// overlapping offsets, over a column range [lo, hi) of a wider dst, and
	// leaves the columns outside it alone.
	offs := make([]int, kk)
	for r := range offs {
		offs[r] = rng.Intn(p + 3)
	}
	win := randSlice(2*p+3, rng)
	lo := rng.Intn(p + 1)
	hi := lo + rng.Intn(p-lo+1)
	packed := make([]float64, kk*p)
	for r, off := range offs {
		copy(packed[r*p:(r+1)*p], win[off:off+p])
	}
	ldd := p + 2
	got = randSlice(oc*ldd, rng)
	want = slices.Clone(got)
	MatMulWindows(got, ldd, w, win, offs, oc, lo, hi)
	full := make([]float64, oc*p)
	matMulAccReference(full, w, packed, oc, kk, p)
	for r := range oc {
		copy(want[r*ldd+lo:r*ldd+hi], full[r*p+lo:r*p+hi])
	}
	requireSame(t, "MatMulWindows", oc, kk, p, got, want)

	got = randSlice(oc*kk, rng)
	want = slices.Clone(got)
	MatMulABTAcc(got, grad, cols, oc, kk, p)
	matMulABTAccReference(want, grad, cols, oc, kk, p)
	requireSame(t, "MatMulABTAcc", oc, kk, p, got, want)

	// The gathered form reads the same a rows out of a shuffled arena, with
	// a row of padding so an index into it is not an index into grad.
	perm := rng.Perm(oc)
	arena := randSlice((oc+1)*p, rng)
	for i := range perm {
		perm[i]++
		copy(arena[perm[i]*p:], grad[i*p:(i+1)*p])
	}
	got = randSlice(oc*kk, rng)
	want = slices.Clone(got)
	MatMulABTAccGather(got, arena, perm, cols, kk, p)
	matMulABTAccReference(want, grad, cols, oc, kk, p)
	requireSame(t, "MatMulABTAccGather", oc, kk, p, got, want)
}

// TestGemmTilesMatchReference pins the contract of the tile kernels: the
// same terms in the same order per destination element as the loops they
// replaced, so == and not a tolerance — over the CommCNN shapes, every
// remainder class of the 2×4 axpy tile and the 2×3 dot tile (odd row
// counts, reduction lengths and widths of every residue, widths past
// gemmBlockJ), operands with exact zeros and pre-filled destinations.
func TestGemmTilesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, sh := range commCNNShapes {
		checkTilesAgainstReference(t, rng, sh[0], sh[1], sh[2])
	}
	for _, oc := range []int{1, 2, 3, 4, 7} {
		for kk := 1; kk <= 9; kk++ {
			for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, gemmBlockJ + 1, 2*gemmBlockJ + 3} {
				checkTilesAgainstReference(t, rng, oc, kk, p)
			}
		}
	}
}
