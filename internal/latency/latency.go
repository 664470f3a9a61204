// Package latency provides a small, concurrency-safe, log-bucketed
// duration histogram shared by the serving layer's per-route request
// recorder and the router's per-shard statistics. Observations land
// in geometric buckets (~20% relative resolution) spanning 100ns to 100s;
// quantile estimates interpolate the geometric midpoint of the matched
// bucket and are clamped to the true observed maximum. All methods are
// safe for concurrent use and never allocate on the Observe path.
package latency

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Bucket layout: bounds[i] is the inclusive upper bound (in nanoseconds)
// of bucket i; one extra overflow bucket catches anything above the last
// bound. With growth 1.2 the ~115 buckets cover 100ns..100s.
const (
	minBoundNs = 100.0
	maxBoundNs = 100e9
	growth     = 1.2
)

var bounds = func() []float64 {
	var b []float64
	for v := minBoundNs; v <= maxBoundNs; v *= growth {
		b = append(b, v)
	}
	return b
}()

// Histogram accumulates duration observations. The zero value is not
// usable; create with New.
type Histogram struct {
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sumNs  atomic.Int64
	maxNs  atomic.Int64
}

// New returns an empty histogram.
func New() *Histogram {
	return &Histogram{counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	i := sort.Search(len(bounds), func(i int) bool { return bounds[i] >= float64(ns) })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
	for {
		cur := h.maxNs.Load()
		if ns <= cur || h.maxNs.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile estimates the q-th quantile (0 < q <= 1) in nanoseconds,
// returning 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= target {
			est := h.bucketMid(i)
			if max := float64(h.maxNs.Load()); est > max {
				est = max
			}
			return est
		}
	}
	return float64(h.maxNs.Load())
}

// bucketMid returns the geometric midpoint of bucket i.
func (h *Histogram) bucketMid(i int) float64 {
	if i >= len(bounds) { // overflow bucket: only the max is meaningful
		return float64(h.maxNs.Load())
	}
	upper := bounds[i]
	if i == 0 { // first bucket starts at 0: arithmetic midpoint
		return upper / 2
	}
	return math.Sqrt(upper / growth * upper)
}

// Stats is a point-in-time summary of a histogram.
type Stats struct {
	Count  int64
	MeanNs float64
	P50Ns  float64
	P95Ns  float64
	P99Ns  float64
	MaxNs  float64
}

// Snapshot summarizes the histogram. Concurrent observations may land
// between the individual reads; the summary is approximate by design.
func (h *Histogram) Snapshot() Stats {
	s := Stats{
		Count: h.count.Load(),
		P50Ns: h.Quantile(0.50),
		P95Ns: h.Quantile(0.95),
		P99Ns: h.Quantile(0.99),
		MaxNs: float64(h.maxNs.Load()),
	}
	if s.Count > 0 {
		s.MeanNs = float64(h.sumNs.Load()) / float64(s.Count)
	}
	return s
}
