// Package eval provides the evaluation machinery of the paper's Section V:
// per-class and overall precision/recall/F1 for multi-class edge and
// community classification, confusion matrices, CDF construction for the
// distribution figures, and deterministic train/test splitting.
package eval

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"locec/internal/social"
)

// ClassMetrics holds precision/recall/F1 for one class.
type ClassMetrics struct {
	Precision, Recall, F1 float64
	Support               int // number of true instances
}

// Report is a full classification evaluation: one row per class plus the
// overall (micro-averaged) row, as the paper's Tables IV and V present.
type Report struct {
	PerClass [social.NumLabels]ClassMetrics
	Overall  ClassMetrics
	// Confusion[t][p] counts instances of true class t predicted as p;
	// column social.NumLabels counts abstentions (Unlabeled predictions).
	Confusion [social.NumLabels][social.NumLabels + 1]int
}

// Evaluate scores predictions against truths. Instances whose truth is not
// a predictable class are skipped (the paper evaluates only the three major
// categories); predictions of Unlabeled count as abstentions, hurting
// recall but not precision.
func Evaluate(truth, pred []social.Label) Report {
	if len(truth) != len(pred) {
		panic(fmt.Sprintf("eval: %d truths vs %d predictions", len(truth), len(pred)))
	}
	var r Report
	for i, t := range truth {
		if !t.Valid() {
			continue
		}
		p := pred[i]
		if p.Valid() {
			r.Confusion[t][p]++
		} else {
			r.Confusion[t][social.NumLabels]++
		}
	}
	var totalTP, totalPred, totalTrue int
	for c := 0; c < social.NumLabels; c++ {
		tp := r.Confusion[c][c]
		trueC := 0
		for p := 0; p <= social.NumLabels; p++ {
			trueC += r.Confusion[c][p]
		}
		predC := 0
		for t := 0; t < social.NumLabels; t++ {
			predC += r.Confusion[t][c]
		}
		r.PerClass[c] = ClassMetrics{
			Precision: safeDiv(tp, predC),
			Recall:    safeDiv(tp, trueC),
			Support:   trueC,
		}
		r.PerClass[c].F1 = f1(r.PerClass[c].Precision, r.PerClass[c].Recall)
		totalTP += tp
		totalPred += predC
		totalTrue += trueC
	}
	r.Overall = ClassMetrics{
		Precision: safeDiv(totalTP, totalPred),
		Recall:    safeDiv(totalTP, totalTrue),
		Support:   totalTrue,
	}
	r.Overall.F1 = f1(r.Overall.Precision, r.Overall.Recall)
	return r
}

func safeDiv(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func f1(p, r float64) float64 {
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// MacroF1 returns the unweighted mean of the per-class F1 scores — the
// class-balanced summary the eval gate tracks (micro-averaged Overall.F1
// can hide a collapsed minority class behind a dominant one).
func (r Report) MacroF1() float64 {
	sum := 0.0
	for c := 0; c < social.NumLabels; c++ {
		sum += r.PerClass[c].F1
	}
	return sum / float64(social.NumLabels)
}

// Accuracy is the share of scored instances predicted right; an
// abstention counts as wrong.
func (r Report) Accuracy() float64 { return r.Overall.Recall }

// String renders the report as a paper-style table fragment.
func (r Report) String() string {
	var b strings.Builder
	for c := 0; c < social.NumLabels; c++ {
		m := r.PerClass[c]
		fmt.Fprintf(&b, "%-16s P=%.3f R=%.3f F1=%.3f (n=%d)\n",
			social.Label(c).String(), m.Precision, m.Recall, m.F1, m.Support)
	}
	fmt.Fprintf(&b, "%-16s P=%.3f R=%.3f F1=%.3f (n=%d)",
		"Overall", r.Overall.Precision, r.Overall.Recall, r.Overall.F1, r.Overall.Support)
	return b.String()
}

// Split deterministically shuffles keys and divides them into train/test
// with the given train fraction.
func Split(keys []uint64, trainFrac float64, seed int64) (train, test []uint64) {
	shuffled := append([]uint64(nil), keys...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	cut := int(trainFrac * float64(len(shuffled)))
	return shuffled[:cut], shuffled[cut:]
}

// CDF is an empirical cumulative distribution over integer-valued samples.
type CDF struct {
	xs []float64 // sorted sample values
}

// NewCDF builds the CDF of the samples.
func NewCDF(samples []float64) *CDF {
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	return &CDF{xs: xs}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.xs) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.xs, x)
	// Advance past equal values (SearchFloat64s finds the first >= x).
	for i < len(c.xs) && c.xs[i] <= x {
		i++
	}
	return float64(i) / float64(len(c.xs))
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.xs) }

// Quantile returns the q-th quantile (0 <= q <= 1).
func (c *CDF) Quantile(q float64) float64 {
	if len(c.xs) == 0 {
		return 0
	}
	i := int(q * float64(len(c.xs)-1))
	return c.xs[i]
}
