package gbdt

import (
	"math"
	"slices"
)

// Histogram-binned split finding (the LightGBM trick, Ke et al. 2017):
// every feature is quantized ONCE into at most maxBins buckets before
// boosting starts, and split search at a node becomes (1) one pass over
// the node's rows accumulating per-bin gradient/hessian/count and (2) one
// left-to-right scan over the bins — O(rows + bins) per feature instead
// of the exact path's O(rows·log rows) sort. The exact enumeration is
// retained in split_reference_test.go as the equivalence oracle.
//
// Determinism is by construction, not by accident:
//
//   - Bin boundaries are a pure function of the training matrix (sorted
//     column walk), computed once before any parallelism starts.
//   - A node's histogram for one feature is accumulated by exactly one
//     worker, over the node's rows in their stored order, so the per-bin
//     float sums are bit-identical no matter how features are scheduled
//     across workers.
//   - Candidate merge across features happens serially in column order
//     with the same strictly-greater-by-1e-12 rule as the exact path, so
//     tie-breaking is worker-count-invariant.
//
// When a feature has at most maxBins distinct values every bin holds one
// value, candidate thresholds are midpoints of adjacent *present* values
// (binHi[prev] + binLo[next])/2, and the candidate set is exactly the
// exact path's — which is why the oracle can demand identical trees on
// small inputs rather than mere closeness.

// maxBins bounds per-feature histogram width. 256 keeps bin codes in one
// byte (the binned matrix is n·nf bytes) and is LightGBM's default.
const maxBins = 256

// binning is the per-feature quantization of one training matrix.
type binning struct {
	counts []int       // bins used per feature
	lo     [][]float64 // per feature, per bin: smallest dataset value in the bin
	hi     [][]float64 // per feature, per bin: largest dataset value in the bin
	codes  [][]uint8   // feature-major bin code per row: codes[f][i]
}

// buildBins quantizes every feature column. Features with at most maxBins
// distinct values get one bin per distinct value (lossless — histogram
// split search enumerates exactly the exact path's candidates); wider
// columns get greedy equal-frequency bins split only at value boundaries.
// NaN feature values deterministically map to bin 0.
func buildBins(X [][]float64, nf int) *binning {
	n := len(X)
	b := &binning{
		counts: make([]int, nf),
		lo:     make([][]float64, nf),
		hi:     make([][]float64, nf),
		codes:  make([][]uint8, nf),
	}
	vals := make([]float64, n)
	for f := 0; f < nf; f++ {
		for i, row := range X {
			vals[i] = row[f]
		}
		// NaN sorts first so the distinct walk sees it once, as the
		// smallest "value"; cmpFloat is a total order.
		slices.SortFunc(vals, cmpFloat)
		lo, hi := binEdges(vals, n)
		b.counts[f] = len(lo)
		b.lo[f], b.hi[f] = lo, hi
		codes := make([]uint8, n)
		for i, row := range X {
			codes[i] = binOf(hi, row[f])
		}
		b.codes[f] = codes
	}
	return b
}

// cmpFloat orders floats totally: NaN first, then the usual order.
func cmpFloat(a, c float64) int {
	switch {
	case a < c:
		return -1
	case a > c:
		return 1
	case math.IsNaN(a) && !math.IsNaN(c):
		return -1
	case math.IsNaN(c) && !math.IsNaN(a):
		return 1
	default:
		return 0
	}
}

// sameValue reports whether two sorted-adjacent values belong to the same
// distinct-value run (NaN equals NaN here so all NaNs share bin 0).
func sameValue(a, c float64) bool {
	return a == c || (math.IsNaN(a) && math.IsNaN(c))
}

// binEdges walks one sorted column and returns per-bin [lo, hi] value
// ranges. Bins never cut through a run of equal values.
func binEdges(sorted []float64, n int) (lo, hi []float64) {
	// Count distinct runs first to pick the strategy.
	distinct := 0
	for i := 0; i < n; i++ {
		if i == 0 || !sameValue(sorted[i], sorted[i-1]) {
			distinct++
		}
	}
	if distinct <= maxBins {
		lo = make([]float64, 0, distinct)
		hi = make([]float64, 0, distinct)
		for i := 0; i < n; i++ {
			if i == 0 || !sameValue(sorted[i], sorted[i-1]) {
				lo = append(lo, sorted[i])
				hi = append(hi, sorted[i])
			}
		}
		return lo, hi
	}
	// Greedy equal-frequency binning: close a bin once it holds at least
	// target rows, but only at a distinct-value boundary so equal values
	// never straddle bins. target >= n/maxBins bounds the bin count by
	// maxBins.
	target := (n + maxBins - 1) / maxBins
	count := 0
	for i := 0; i < n; i++ {
		if count == 0 {
			lo = append(lo, sorted[i])
		}
		count++
		boundary := i == n-1 || !sameValue(sorted[i], sorted[i+1])
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
// is >= v. NaN maps to bin 0.
func binOf(hi []float64, v float64) uint8 {
	if math.IsNaN(v) {
		return 0
	}
	// Binary search over bin upper edges; a NaN edge (possible only for
	// bin 0 when the column contains NaN) compares false and pushes the
	// search right, which is correct: finite v never belongs to that bin.
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

// histScratch is one worker's private histogram accumulators, reused for
// every (node, feature) pair that worker processes.
type histScratch struct {
	g [maxBins]float64
	h [maxBins]float64
	c [maxBins]int32
}

// accumulate fills the first nb bins from the node's rows in stored row
// order. Exactly one worker touches one (node, feature) pair, so the sums
// are scheduling-independent.
func (s *histScratch) accumulate(codes []uint8, rows []int, grad, hess []float64, nb int) {
	hg, hh, hc := s.g[:nb], s.h[:nb], s.c[:nb]
	for i := range hg {
		hg[i], hh[i], hc[i] = 0, 0, 0
	}
	for _, r := range rows {
		b := codes[r]
		hg[b] += grad[r]
		hh[b] += hess[r]
		hc[b]++
	}
}
