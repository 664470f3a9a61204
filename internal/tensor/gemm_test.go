package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// naiveMul is the reference O(mkn) product used to validate the kernels.
func naiveMul(a, b []float64, m, k, n int) []float64 {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for t := 0; t < k; t++ {
				s += a[i*k+t] * b[t*n+j]
			}
			out[i*n+j] = s
		}
	}
	return out
}

func randSlice(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func maxDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// gemmShapes spans degenerate vectors, the tiny CommCNN shapes, and sizes
// larger than both block constants so the blocked loops are exercised.
var gemmShapes = [][3]int{
	{1, 1, 1}, {1, 7, 3}, {8, 9, 260}, {8, 72, 260},
	{3, 200, 17}, {5, 300, 600}, {2, 1, 1000},
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range gemmShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := randSlice(m*k, rng), randSlice(k*n, rng)
		want := naiveMul(a, b, m, k, n)
		dst := randSlice(m*n, rng) // garbage: MatMul must overwrite
		MatMul(dst, a, b, m, k, n)
		if d := maxDiff(dst, want); d > 1e-12 {
			t.Fatalf("MatMul (%d,%d,%d) off by %g", m, k, n, d)
		}
	}
}

func TestMatMulABTAccMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sh := range gemmShapes {
		m, n, p := sh[0], sh[1], sh[2]
		a, b := randSlice(m*p, rng), randSlice(n*p, rng)
		bt := make([]float64, p*n)
		for i := 0; i < n; i++ {
			for j := 0; j < p; j++ {
				bt[j*n+i] = b[i*p+j]
			}
		}
		want := naiveMul(a, bt, m, p, n)
		dst := make([]float64, m*n)
		MatMulABTAcc(dst, a, b, m, n, p)
		if d := maxDiff(dst, want); d > 1e-11 {
			t.Fatalf("MatMulABTAcc (%d,%d,%d) off by %g", m, n, p, d)
		}
		// Accumulates rather than overwrites.
		MatMulABTAcc(dst, a, b, m, n, p)
		for i := range dst {
			if math.Abs(dst[i]-2*want[i]) > 1e-10*(1+math.Abs(want[i])) {
				t.Fatalf("MatMulABTAcc (%d,%d,%d) did not accumulate", m, n, p)
			}
		}
	}
}

func TestEnsureTensorReuse(t *testing.T) {
	a := NewTensor(2, 3, 4)
	if got := EnsureTensor(a, 2, 3, 4); got != a {
		t.Fatal("EnsureTensor reallocated on matching shape")
	}
	b := EnsureTensor(a, 3, 3, 4)
	if b == a || b.C != 3 {
		t.Fatal("EnsureTensor did not reallocate on shape change")
	}
	if got := EnsureTensor(nil, 1, 1, 1); got == nil || got.Size() != 1 {
		t.Fatal("EnsureTensor(nil) broken")
	}
}

func TestEnsureFloats(t *testing.T) {
	buf := make([]float64, 8, 16)
	if got := EnsureFloats(buf, 12); cap(got) != 16 || len(got) != 12 {
		t.Fatalf("EnsureFloats reallocated within capacity: len=%d cap=%d", len(got), cap(got))
	}
	if got := EnsureFloats(buf, 32); len(got) != 32 {
		t.Fatal("EnsureFloats did not grow")
	}
}
