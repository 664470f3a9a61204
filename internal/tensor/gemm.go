package tensor

// Small GEMM kernels backing the convolution forward in internal/nn and the
// combiner in internal/logreg. (The convolution backward visits only the
// non-zeros of its output gradient and has loops of its own.) All operands
// are dense row-major float64 slices owned by the caller; every kernel
// writes into a preallocated destination so the hot path performs no
// allocation on small shapes. The convolution's B operand is not a matrix
// of its own: its rows are windows at given offsets into one zero-padded
// input (MatMulWindows), so there is no im2col copy to build or read.
//
// The two general products run on two register tiles. axpyTile folds
// four B rows into two C rows per pass, so each C element is loaded and
// stored once per four multiply-adds (axpyRows, under MatMul and
// MatMulWindows alike): fourteen live floats in amd64's fifteen
// registers. dotTile runs 2 × 3 dot products together,
// six independent accumulator chains fed by five loads per step
// (MatMulABTAcc and its gathered form; the combiner's three-class shape is
// one tile per row pair); 2 × 4 would be fewer loads per multiply-add but
// spills, because the compiler schedules all the multiplies ahead of the
// adds. Both run at one multiply and one add per multiply-add with nothing
// else in the way, which is what scalar Go reaches. Remainder rows and
// columns take 1-wide loops. There is no cache blocking: a C row pair
// streams through L1 whatever its width, and column strips of B measured
// slower than whole rows.
//
// The tiles only regroup which loads and stores are shared. Every dst
// element receives the terms a plain triple loop would hand it — ascending
// reduction index, one `s += a*b` statement per term, dot products formed
// from 0 and then added to dst — so results are == to those loops (kept
// as the oracle in gemm_reference_test.go), also where the compiler fuses
// the statement into a multiply-add, because it is the same statement on
// both sides. A zero in a is multiplied like any other value: a is the
// weight operand and never sparse, and on finite inputs a ±0 term cannot
// change a sum that started at +0.
//
// The kernels are serial. No shape this repository runs is large enough for
// a fan-out over output rows to pay (the largest, 8×72×298 in Conv2D, is
// ≈ 170 k multiply-adds), and their callers already run one per core.

// axpyTile adds four scaled b rows into two c rows of the same width:
// c0[j] += p0*b0[j], += p1*b1[j], += p2*b2[j], += p3*b3[j] in that order,
// and c1 likewise with q0…q3.
func axpyTile(c0, c1, b0, b1, b2, b3 []float64, p0, p1, p2, p3, q0, q1, q2, q3 float64) {
	w := len(c0)
	c1, b0, b1, b2, b3 = c1[:w], b0[:w], b1[:w], b2[:w], b3[:w]
	for j, s0 := range c0 {
		v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
		s0 += p0 * v0
		s0 += p1 * v1
		s0 += p2 * v2
		s0 += p3 * v3
		c0[j] = s0
		s1 := c1[j]
		s1 += q0 * v0
		s1 += q1 * v1
		s1 += q2 * v2
		s1 += q3 * v3
		c1[j] = s1
	}
}

// axpy is the 1-wide remainder of axpyTile: c[j] += s*b[j].
func axpy(c, b []float64, s float64) {
	b = b[:len(c)]
	for j := range c {
		c[j] += s * b[j]
	}
}

// axpyRows sets columns [lo, hi) of the m rows of dst (row r starts at
// r·ldd) to a·B, a m×len(offs) and B's row t the window of b that starts at
// offs[t]: per pair of dst rows, B goes by four rows at a time, every
// element summing from 0 over ascending t.
func axpyRows(dst []float64, ldd int, a, b []float64, offs []int, m, lo, hi int) {
	k := len(offs)
	crow := func(r int) []float64 { return dst[r*ldd+lo : r*ldd+hi] }
	brow := func(t int) []float64 { return b[offs[t]+lo : offs[t]+hi] }
	for r := range m {
		clear(crow(r))
	}
	r := 0
	for ; r+1 < m; r += 2 {
		c0, c1 := crow(r), crow(r+1)
		p, q := a[r*k:(r+1)*k], a[(r+1)*k:(r+2)*k]
		t := 0
		for ; t+3 < k; t += 4 {
			axpyTile(c0, c1, brow(t), brow(t+1), brow(t+2), brow(t+3),
				p[t], p[t+1], p[t+2], p[t+3], q[t], q[t+1], q[t+2], q[t+3])
		}
		for ; t < k; t++ {
			axpy(c0, brow(t), p[t])
			axpy(c1, brow(t), q[t])
		}
	}
	if r < m {
		for t, p := range a[r*k : (r+1)*k] {
			axpy(crow(r), brow(t), p)
		}
	}
}

// dotTile adds the six dot products of a0, a1 with b0, b1, b2 (all of a0's
// length) into d0[0:3] and d1[0:3], each summed from 0 over ascending t.
func dotTile(d0, d1, a0, a1, b0, b1, b2 []float64) {
	p := len(a0)
	a1, b0, b1, b2 = a1[:p], b0[:p], b1[:p], b2[:p]
	var s00, s01, s02, s10, s11, s12 float64
	for t, u0 := range a0 {
		u1 := a1[t]
		v0, v1, v2 := b0[t], b1[t], b2[t]
		s00 += u0 * v0
		s01 += u0 * v1
		s02 += u0 * v2
		s10 += u1 * v0
		s11 += u1 * v1
		s12 += u1 * v2
	}
	d0, d1 = d0[:3], d1[:3]
	d0[0] += s00
	d0[1] += s01
	d0[2] += s02
	d1[0] += s10
	d1[1] += s11
	d1[2] += s12
}

// dot is the 1-wide remainder of dotTile.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for t, av := range a {
		s += av * b[t]
	}
	return s
}

// MatMul computes dst = a·b where a is m×k and b is k×n, both row-major.
// dst must have length m*n; it is fully overwritten. b is consumed in its
// natural row-major layout (no transpose), so the inner loop is contiguous
// over both b and dst.
func MatMul(dst, a, b []float64, m, k, n int) {
	checkGemm(len(dst), len(a), len(b), m, k, n)
	var stack [128]int // B's row offsets, on the stack up to k = 128
	offs := stack[:0]
	for t := range k {
		offs = append(offs, t*n)
	}
	axpyRows(dst, n, a, b, offs, m, 0, n)
}

// MatMulWindows sets columns [lo, hi) of the m rows of dst, row r starting
// at r·ldd, to a·B: a is m×len(offs), and row t of B is the window of b
// that starts at offs[t], read at [offs[t]+lo, offs[t]+hi). Conv2D's patch
// rows are such windows into one zero-padded input; MatMul is the case
// offs[t] = t·n. Columns outside [lo, hi) are left as they are.
func MatMulWindows(dst []float64, ldd int, a, b []float64, offs []int, m, lo, hi int) {
	if lo < 0 || hi < lo || hi > ldd || len(dst) < (m-1)*ldd+hi || len(a) < m*len(offs) {
		panic("tensor: MatMulWindows dimension mismatch")
	}
	axpyRows(dst, ldd, a, b, offs, m, lo, hi)
}

// MatMulABTAcc computes dst += a·bᵀ where a is m×p and b is n×p (both
// row-major), accumulating into the m×n dst. Each dst entry is the dot
// product of an a row and a b row, so both inner streams are contiguous.
// Used for the combiner's logits (logreg.PredictProbaBlock).
func MatMulABTAcc(dst, a, b []float64, m, n, p int) {
	if len(dst) < m*n || len(a) < m*p || len(b) < n*p {
		panic("tensor: MatMulABTAcc dimension mismatch")
	}
	row := func(mat []float64, r, w int) []float64 { return mat[r*w : (r+1)*w] }
	i := 0
	for ; i+1 < m; i += 2 {
		dotRowPair(row(dst, i, n), row(dst, i+1, n), row(a, i, p), row(a, i+1, p), b)
	}
	if i < m {
		dotRow(row(dst, i, n), row(a, i, p), b)
	}
}

// dotRowPair adds a0·bᵀ into d0 and a1·bᵀ into d1, b holding len(d0) rows
// of a0's length: three b rows at a time through dotTile, the rest by dot.
func dotRowPair(d0, d1, a0, a1, b []float64) {
	n, p := len(d0), len(a0)
	row := func(r int) []float64 { return b[r*p : (r+1)*p] }
	j := 0
	for ; j+2 < n; j += 3 {
		dotTile(d0[j:], d1[j:], a0, a1, row(j), row(j+1), row(j+2))
	}
	for ; j < n; j++ {
		d0[j] += dot(a0, row(j))
		d1[j] += dot(a1, row(j))
	}
}

// dotRow is dotRowPair for an odd last row: d += a·bᵀ.
func dotRow(d, a, b []float64) {
	p := len(a)
	for j := range d {
		d[j] += dot(a, b[j*p:(j+1)*p])
	}
}

// MatMulABTAccGather computes dst += A·bᵀ like MatMulABTAcc, except A is
// not materialized: row r of the m×p A is arena[rows[r]*p : rows[r]*p+p].
// Mini-batch SGD visits rows in shuffled order, so copying them into a
// dense panel first costs a miss-bound pass over the whole training set
// every epoch; fusing the gather lets the kernel's own streams absorb
// those misses. The tiles are MatMulABTAcc's, handed arena row slices, so
// per dst element the accumulation order is identical to MatMulABTAcc on
// the equivalent packed panel.
func MatMulABTAccGather(dst, arena []float64, rows []int, b []float64, n, p int) {
	m := len(rows)
	if len(dst) < m*n || len(b) < n*p {
		panic("tensor: MatMulABTAccGather dimension mismatch")
	}
	arow := func(r int) []float64 { return arena[rows[r]*p : rows[r]*p+p] }
	r := 0
	for ; r+1 < m; r += 2 {
		dotRowPair(dst[r*n:(r+1)*n], dst[(r+1)*n:(r+2)*n], arow(r), arow(r+1), b)
	}
	if r < m {
		dotRow(dst[r*n:(r+1)*n], arow(r), b)
	}
}

// MatMulATBGatherB computes the k×n dst = aᵀ·B, where a is m×k packed and
// the m×n B is gathered: row i is arena[rows[i]*n : rows[i]*n+n]. Per dst
// element the terms accumulate over ascending i from 0, the order of the
// plain loop over rows.
func MatMulATBGatherB(dst, a, arena []float64, rows []int, k, n int) {
	m := len(rows)
	if len(dst) < k*n || len(a) < m*k {
		panic("tensor: MatMulATBGatherB dimension mismatch")
	}
	for i := range dst[:k*n] {
		dst[i] = 0
	}
	if k == 3 {
		// Rows are folded in in pairs: each dst element is loaded and
		// stored once per pair instead of once per row, with the pair's
		// two terms added sequentially — still ascending-i order per
		// element, so the result matches the one-row-at-a-time loop bit
		// for bit.
		c0 := dst[0:n:n]
		c1 := dst[n : 2*n : 2*n]
		c2 := dst[2*n : 3*n : 3*n]
		i := 0
		for ; i+1 < m; i += 2 {
			ai := a[i*3 : i*3+6 : i*3+6]
			a00, a01, a02 := ai[0], ai[1], ai[2]
			a10, a11, a12 := ai[3], ai[4], ai[5]
			b0 := arena[rows[i]*n : rows[i]*n+n : rows[i]*n+n]
			b1 := arena[rows[i+1]*n : rows[i+1]*n+n : rows[i+1]*n+n]
			for j, bv0 := range b0 {
				bv1 := b1[j]
				v0 := c0[j]
				v0 += a00 * bv0
				v0 += a10 * bv1
				c0[j] = v0
				v1 := c1[j]
				v1 += a01 * bv0
				v1 += a11 * bv1
				c1[j] = v1
				v2 := c2[j]
				v2 += a02 * bv0
				v2 += a12 * bv1
				c2[j] = v2
			}
		}
		for ; i < m; i++ {
			ai := a[i*3 : i*3+3 : i*3+3]
			av0, av1, av2 := ai[0], ai[1], ai[2]
			bi := arena[rows[i]*n : rows[i]*n+n]
			for j, bv := range bi {
				c0[j] += av0 * bv
				c1[j] += av1 * bv
				c2[j] += av2 * bv
			}
		}
		return
	}
	for i := 0; i < m; i++ {
		ai := a[i*k : (i+1)*k]
		bi := arena[rows[i]*n : rows[i]*n+n]
		for kk, av := range ai {
			if av == 0 {
				continue
			}
			ck := dst[kk*n : (kk+1)*n]
			for j, bv := range bi {
				ck[j] += av * bv
			}
		}
	}
}

func checkGemm(ld, la, lb, m, k, n int) {
	if ld < m*n || la < m*k || lb < k*n {
		panic("tensor: MatMul dimension mismatch")
	}
}

// EnsureTensor returns t when it already has shape (c,h,w), otherwise a
// freshly allocated tensor of that shape. It is the scratch-buffer idiom
// used throughout internal/nn: buffers persist across calls and are only
// reallocated when the input shape changes. Contents are unspecified —
// callers either overwrite every element or Zero() explicitly.
func EnsureTensor(t *Tensor, c, h, w int) *Tensor {
	if t != nil && t.C == c && t.H == h && t.W == w {
		return t
	}
	return NewTensor(c, h, w)
}

// EnsureFloats returns buf resliced to length n, reallocating only when
// capacity is insufficient. Contents are unspecified.
func EnsureFloats(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}
