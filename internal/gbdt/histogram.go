package gbdt

import (
	"math"
	"slices"

	"locec/internal/parallel"
)

// Histogram-binned split finding (the LightGBM trick, Ke et al. 2017):
// every feature is quantized ONCE into at most maxBins buckets before
// boosting starts, and split search at a node becomes (1) per-bin
// gradient/hessian/count sums of the node's rows and (2) one left-to-right
// scan over the bins — O(rows + bins) per feature instead of the exact
// path's O(rows·log rows) sort. The exact enumeration is retained in
// split_reference_test.go as the equivalence oracle.
//
// Step (1) uses the same paper's histogram subtraction: a node that will
// try to split owns one histogram over every candidate column, and when
// it splits only the SMALLER child is accumulated from rows (the left one
// on equal sizes); the larger child's histogram is parent − smaller, made
// in the parent's buffer. Counts are integers, so a derived count is
// exact. A derived sum is the directly accumulated one up to summation
// rounding (≤ n·2⁻⁵²·Σ|x| over the parent's rows in the bin), which is
// why the scan asks the COUNT whether a bin is occupied: a derived sum can
// round to 0 — or to a few ulps of dust — under a bin that holds rows, or
// under one that holds none. Node totals G and H and therefore leaf values
// never come from a histogram; they are summed over the node's rows in
// node order (gbdt.go), so subtraction can move a tree only by flipping a
// gain comparison inside the 1e-12 tie rule. hist_reference_test.go keeps
// the direct-accumulation trainer and holds Train to byte-identical models.
//
// Determinism is by construction, not by accident:
//
//   - Bin boundaries are a pure function of the training matrix (sorted
//     column walk); each column is binned by exactly one goroutine of the
//     one parallel.For in buildBins, into slots only that column owns.
//   - Everything after that is serial. A histogram is accumulated over the
//     node's rows in their stored order, and which child is accumulated
//     depends only on the two row counts.
//   - Candidate merge across features happens in column order with the
//     same strictly-greater-by-1e-12 rule as the exact path.
//
// When a feature has at most maxBins distinct values every bin holds one
// value, candidate thresholds are midpoints of adjacent *present* values
// (binHi[prev] + binLo[next])/2, and the candidate set is exactly the
// exact path's — which is why the oracle can demand identical trees on
// small inputs rather than mere closeness.

// maxBins bounds per-feature histogram width. 256 keeps bin codes in one
// byte (the binned matrix is n·nf bytes) and is LightGBM's default.
const maxBins = 256

// binning is the per-feature quantization of one training matrix, plus the
// feature-major copy of the matrix the row partition reads.
type binning struct {
	counts []int       // bins used per feature
	lo     [][]float64 // per feature, per bin: smallest dataset value in the bin
	hi     [][]float64 // per feature, per bin: largest dataset value in the bin
	codes  [][]uint8   // feature-major bin code per row: codes[f][i]
	vals   [][]float64 // feature-major value per row: vals[f][i] == X[i][f]
}

// buildBins quantizes every feature column. Features with at most maxBins
// distinct values get one bin per distinct value (lossless — histogram
// split search enumerates exactly the exact path's candidates); wider
// columns get greedy equal-frequency bins split only at value boundaries.
// NaN feature values get the last bin of their column, to themselves.
func buildBins(X [][]float64, nf int) *binning {
	n := len(X)
	b := &binning{
		counts: make([]int, nf),
		lo:     make([][]float64, nf),
		hi:     make([][]float64, nf),
		codes:  make([][]uint8, nf),
		vals:   make([][]float64, nf),
	}
	codes := make([]uint8, n*nf)
	vals := make([]float64, n*nf)
	parallel.For(nf, 0, func(f0, f1 int) {
		sorted := make([]float64, n)
		for f := f0; f < f1; f++ {
			col := vals[f*n : (f+1)*n]
			for i, row := range X {
				col[i] = row[f]
			}
			// cmpFloat is a total order with NaN last, so the real values
			// are a sorted prefix.
			copy(sorted, col)
			slices.SortFunc(sorted, cmpFloat)
			lo, hi := binEdges(sorted)
			b.counts[f] = len(lo)
			b.lo[f], b.hi[f] = lo, hi
			code := codes[f*n : (f+1)*n]
			for i, v := range col {
				code[i] = binOf(hi, v)
			}
			b.codes[f], b.vals[f] = code, col
		}
	})
	return b
}

// cmpFloat orders floats totally: the usual order, then NaN.
func cmpFloat(a, c float64) int {
	switch {
	case a < c:
		return -1
	case a > c:
		return 1
	case math.IsNaN(a) && !math.IsNaN(c):
		return 1
	case math.IsNaN(c) && !math.IsNaN(a):
		return -1
	default:
		return 0
	}
}

// binEdges walks one column sorted by cmpFloat and returns per-bin
// [lo, hi] value ranges. NaNs — the tail of the column — share one bin
// after every real one (lo = hi = NaN), taken out of the maxBins budget:
// the scan then counts them right of every threshold, where the partition
// and Forest.walk send them, and the candidate between the last real bin
// and theirs drops out on its NaN midpoint.
func binEdges(sorted []float64) (lo, hi []float64) {
	n := len(sorted)
	for n > 0 && math.IsNaN(sorted[n-1]) {
		n--
	}
	if n == len(sorted) {
		return realEdges(sorted, maxBins)
	}
	lo, hi = realEdges(sorted[:n], maxBins-1)
	return append(lo, math.NaN()), append(hi, math.NaN())
}

// realEdges bins a sorted NaN-free column into at most budget bins that
// never cut through a run of equal values.
func realEdges(sorted []float64, budget int) (lo, hi []float64) {
	n := len(sorted)
	// Count distinct runs first to pick the strategy.
	distinct := 0
	for i := 0; i < n; i++ {
		if i == 0 || sorted[i] != sorted[i-1] {
			distinct++
		}
	}
	if distinct <= budget {
		lo = make([]float64, 0, distinct)
		hi = make([]float64, 0, distinct)
		for i := 0; i < n; i++ {
			if i == 0 || sorted[i] != sorted[i-1] {
				lo = append(lo, sorted[i])
				hi = append(hi, sorted[i])
			}
		}
		return lo, hi
	}
	// Greedy equal-frequency binning: close a bin once it holds at least
	// target rows, but only at a distinct-value boundary so equal values
	// never straddle bins. target >= n/budget bounds the bin count by
	// budget.
	target := (n + budget - 1) / budget
	count := 0
	for i := 0; i < n; i++ {
		if count == 0 {
			lo = append(lo, sorted[i])
		}
		count++
		boundary := i == n-1 || sorted[i] != sorted[i+1]
		if boundary && count >= target {
			hi = append(hi, sorted[i])
			count = 0
		}
	}
	if count > 0 {
		hi = append(hi, sorted[n-1])
	}
	return lo, hi
}

// binOf returns the bin code for value v: the first bin whose upper edge
// is >= v. NaN maps to the column's last bin.
func binOf(hi []float64, v float64) uint8 {
	// Binary search over bin upper edges. The last edge is never compared
	// (m < r), so the NaN edge of a NaN bin is never read: a finite v ends
	// left of it because its own bin's edge is >= v, and a NaN v — every
	// comparison false — is pushed all the way right, into that bin.
	l, r := 0, len(hi)-1
	for l < r {
		m := (l + r) / 2
		if hi[m] >= v {
			r = m
		} else {
			l = m + 1
		}
	}
	return uint8(l)
}

// splitCand is one feature's best histogram split, or ok == false.
type splitCand struct {
	gain   float64
	thresh float64
	ok     bool
}

// scanHistogram finds the best split of one feature given its per-bin
// gradient/hessian/count accumulators and the node totals G, H. It is the
// binned twin of the exact path's sorted scan: candidates sit between
// adjacent occupied bins (empty bins generate no duplicate candidates),
// the threshold is the midpoint of the neighbors' nearest dataset values,
// and a candidate must beat the running best by more than 1e-12 — the
// exact path's tie-breaking rule. Non-finite gains or thresholds (NaN/Inf
// gradients, infinite feature values) are skipped rather than emitted, so
// the function never proposes an unusable split; it is fuzzed directly by
// FuzzHistogramSplit.
func scanHistogram(hg, hh []float64, hc []int32, lo, hi []float64, G, H, lambda, gamma, minChild float64) splitCand {
	var c splitCand
	parentScore := G * G / (H + lambda)
	best := gamma
	var GL, HL float64
	prev := -1 // last occupied bin
	for b := 0; b < len(hg); b++ {
		if hc[b] == 0 {
			continue
		}
		if prev >= 0 {
			GR, HR := G-GL, H-HL
			if HL >= minChild && HR >= minChild {
				gain := 0.5 * (GL*GL/(HL+lambda) + GR*GR/(HR+lambda) - parentScore)
				if gain > best+1e-12 && !math.IsInf(gain, 0) {
					if th := (hi[prev] + lo[b]) / 2; isFinite(th) {
						best = gain
						c = splitCand{gain: gain, thresh: th, ok: true}
					}
				}
			}
		}
		GL += hg[b]
		HL += hh[b]
		prev = b
	}
	return c
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// histogram is one node's per-bin gradient sums, hessian sums and row
// counts over every feature: feature f owns slots [f·maxBins, (f+1)·maxBins)
// of each array and uses the first counts[f] of them. Only the candidate
// columns of the tree being grown are ever written or read.
type histogram struct {
	g, h []float64
	c    []int32
}

func newHistogram(nf int) *histogram {
	return &histogram{g: make([]float64, nf*maxBins), h: make([]float64, nf*maxBins), c: make([]int32, nf*maxBins)}
}

// feature returns feature f's first nb bins.
func (s *histogram) feature(f, nb int) (g, h []float64, c []int32) {
	lo, hi := f*maxBins, f*maxBins+nb
	return s.g[lo:hi], s.h[lo:hi], s.c[lo:hi]
}

// accumulate fills the candidate columns' bins from one node's rows, whose
// gradients g and hessians h are stored beside them in node order. Terms
// enter each bin in that order.
func (s *histogram) accumulate(b *binning, cols []int, rows []int32, g, h []float64) {
	g, h = g[:len(rows)], h[:len(rows)]
	for _, f := range cols {
		// A bin code is a byte and a feature owns maxBins slots, so the
		// three updates need no bounds check.
		hg := (*[maxBins]float64)(s.g[f*maxBins:])
		hh := (*[maxBins]float64)(s.h[f*maxBins:])
		hc := (*[maxBins]int32)(s.c[f*maxBins:])
		nb := b.counts[f]
		clear(hg[:nb])
		clear(hh[:nb])
		clear(hc[:nb])
		codes := b.codes[f]
		for i, r := range rows {
			k := codes[r]
			hg[k] += g[i]
			hh[k] += h[i]
			hc[k]++
		}
	}
}

// subtract turns the parent's histogram s into the sibling of the child
// accumulated in child: s − child, bin by bin over the candidate columns.
func (s *histogram) subtract(child *histogram, b *binning, cols []int) {
	for _, f := range cols {
		sg, sh, sc := s.feature(f, b.counts[f])
		cg, ch, cc := child.feature(f, b.counts[f])
		for k := range sg {
			sg[k] -= cg[k]
			sh[k] -= ch[k]
			sc[k] -= cc[k]
		}
	}
}
