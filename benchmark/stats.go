package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between closest ranks; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// p01 is the gated percentile of a latency sample. On a shared host
// interference only adds time, so the fast end repeats where the median
// does not; with fewer than a hundred samples it sits just above the
// minimum.
func p01(xs []float64) float64 { return quantile(sortedCopy(xs), 0.01) }

// p10 is the fast decile, reported beside the median.
func p10(xs []float64) float64 { return quantile(sortedCopy(xs), 0.10) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentiles are the candidates of the reporting rule, highest first;
// beyond is the k of "one sample in k lies beyond it".
var tailPercentiles = []struct {
	pct    float64
	beyond int
}{{99.99, 10000}, {99.9, 1000}, {99, 100}, {95, 20}, {90, 10}, {75, 4}, {50, 2}}

// tailPercentile picks the highest percentile of tailPercentiles that
// still has at least ten samples beyond it in a sample of n; with fewer
// than forty samples nothing above the median qualifies and it returns 50.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n/p.beyond >= 10 {
			return p.pct
		}
	}
	return 50
}

// timing is how every duration sample is reported: the median, the highest
// percentile the sample supports, and the sample count.
type timing struct {
	Median  float64
	TailPct float64
	Tail    float64
	N       int
}

func summarize(xs []float64) timing {
	s := sortedCopy(xs)
	p := tailPercentile(len(s))
	return timing{Median: quantile(s, 0.5), TailPct: p, Tail: quantile(s, p/100), N: len(s)}
}

// windowMedian buckets completion times (offsets from the start of the
// measured window) into consecutive windows of the given width and returns
// the median count per full window, scaled to events per second. The last,
// partial window is dropped; with no full window it falls back to the
// overall rate.
func windowMedian(done []time.Duration, width, total time.Duration) float64 {
	full := int(total / width)
	if full == 0 {
		if total <= 0 {
			return 0
		}
		return float64(len(done)) / total.Seconds()
	}
	counts := make([]float64, full)
	for _, d := range done {
		if w := int(d / width); w < full {
			counts[w]++
		}
	}
	return median(counts) / width.Seconds()
}

// scaled converts a duration sample to floats in the unit given as a
// multiple per second (1 = s, 1e3 = ms, 1e6 = µs).
func scaled(ds []time.Duration, unit float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds() * unit
	}
	return out
}
