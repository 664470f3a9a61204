// Package logreg implements multinomial (softmax) logistic regression, the
// classifier LoCEC's Phase III uses to combine the two endpoint communities'
// classification results into a final edge label (Eq. 4 of the paper).
package logreg

import (
	"fmt"
	"math"
	"math/rand"

	"locec/internal/tensor"
)

// Config controls training.
type Config struct {
	Classes   int     // required, >= 2
	Epochs    int     // cap on epochs; the held-out stop usually ends the fit far earlier (default 100)
	BatchSize int     // default 32
	LR        float64 // initial step, halved on every non-improving epoch (default 0.1)
	L2        float64 // weight decay on the standardised weights, bias included (default 0: none)
	Seed      int64
}

func (c *Config) defaults() {
	if c.Epochs <= 0 {
		c.Epochs = 100
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR <= 0 {
		c.LR = 0.1
	}
	if c.L2 < 0 {
		c.L2 = 0
	}
}

// The held-out stop. One row in holdOutDiv is set aside to score each
// epoch; a set that cannot spare minHoldOut rows trains on everything and
// runs to the epoch cap. The fit ends after stopPatience epochs that did
// not lower the held-out loss.
const (
	holdOutDiv   = 10
	minHoldOut   = 30
	stopPatience = 3
)

// Model is a trained softmax regression classifier.
type Model struct {
	Classes  int
	Features int
	// W is Classes×(Features+1); the last column is the bias.
	W []float64
	// EpochsRun is how many epochs Train ran before it stopped. It is not
	// persisted: a loaded model reports 0.
	EpochsRun int `json:"-"`
}

// Train is TrainRows for callers that hold one slice per row: it rejects
// ragged rows, flattens X into bias-first rows and fits those.
func Train(X [][]float64, y []int, cfg Config) (*Model, error) {
	rows, err := flatten(X, y)
	if err != nil {
		return nil, err
	}
	return TrainRows(rows, y, cfg)
}

// flatten lays X out as len(X) rows of [1, x...]. A ragged row would be
// silently shifted into its neighbours by the flattening, so it is refused.
func flatten(X [][]float64, y []int) ([]float64, error) {
	if len(X) != len(y) {
		return nil, fmt.Errorf("logreg: bad training set (%d rows, %d labels)", len(X), len(y))
	}
	if len(X) == 0 {
		return nil, nil
	}
	nf := len(X[0])
	rows := make([]float64, 0, len(X)*(nf+1))
	for i, x := range X {
		if len(x) != nf {
			return nil, fmt.Errorf("logreg: row %d has %d features, row 0 has %d", i, len(x), nf)
		}
		rows = append(append(rows, 1), x...)
	}
	return rows, nil
}

// TrainRows fits the model with mini-batch SGD on the softmax cross-entropy
// and stops when a held-out sample says it has converged. rows holds
// len(y) bias-first rows [1, x...], each len(rows)/len(y) wide; the caller
// hands them over, and they are standardised in place.
//
// Every feature column is standardised once — centred, and divided by its
// standard deviation or the typical column's, whichever is larger (see
// columnStats) — so one step size suits all of them; the fitted weights
// are folded back through the column means and scales before they are
// published, so the Model takes raw features. A seeded sample of one row
// in ten is held out, and after each epoch its log-loss is scored: an
// epoch that does not lower it — the untrained model sets the first mark
// to beat — is undone (the best weights so far are restored) and halves
// the step, and the third such epoch ends the fit. Config.Epochs is only
// the cap. A set too small to hold out 30 rows trains on every row and
// runs to the cap. L2 defaults to 0 and every pipeline in this repository
// leaves it there: the stop is the regulariser.
//
// Standardised, rows is the arena every epoch streams; each shuffled
// mini-batch gathers its rows from it through the tensor GEMM kernels:
// logits are one MatMulABTAccGather against the bias-first weight matrix,
// gradients one MatMulATBGatherB of the (softmax − one-hot) residuals
// against the batch, each preceded by a serial warm pass over the batch's
// arena rows (rationale at the pass itself). Per dst element both kernels
// accumulate in exactly the order a scalar loop does — bias first then
// ascending features for logits, shuffled-row order for gradients — and
// TrainRows is a serial function of (rows, y, cfg), so it agrees bit for
// bit, in weights and in epochs run, with the scalar statement of the same
// algorithm in logreg_reference_test.go.
func TrainRows(rows []float64, y []int, cfg Config) (*Model, error) {
	cfg.defaults()
	if err := validate(rows, y, cfg.Classes); err != nil {
		return nil, err
	}
	fw := len(rows) / len(y)
	mean, inv, err := columnStats(rows, fw)
	if err != nil {
		return nil, err
	}
	wb, epochs := fit(rows, fw, y, cfg, mean, inv)
	return foldBack(wb, mean, inv, cfg.Classes, epochs), nil
}

// foldBack publishes bias-first weights fitted on standardised rows as a
// Model for raw features, in the bias-last layout the rest of the system
// expects: w·(x−mean)·inv = (w·inv)·x − (w·inv)·mean.
func foldBack(wb, mean, inv []float64, classes, epochs int) *Model {
	nf := len(mean)
	fw := nf + 1
	m := &Model{Classes: classes, Features: nf, W: make([]float64, classes*fw), EpochsRun: epochs}
	for c := 0; c < classes; c++ {
		bias := wb[c*fw]
		for j := 0; j < nf; j++ {
			w := wb[c*fw+1+j] * inv[j]
			m.W[c*fw+j] = w
			bias -= w * mean[j]
		}
		m.W[c*fw+nf] = bias
	}
	return m
}

// validate rejects what TrainRows cannot fit: rows that are not len(y)
// rows of a bias and ≥ 1 feature, a bias slot that is not 1 (a shifted
// row), and a non-finite feature, which would poison its column's mean
// and every weight. Columns count from the first feature.
func validate(rows []float64, y []int, classes int) error {
	if classes < 2 {
		return fmt.Errorf("logreg: Classes must be >= 2, got %d", classes)
	}
	if len(y) == 0 || len(rows)%len(y) != 0 {
		return fmt.Errorf("logreg: bad training set (%d values, %d labels)", len(rows), len(y))
	}
	fw := len(rows) / len(y)
	if fw < 2 {
		return fmt.Errorf("logreg: rows %d wide hold no feature after the bias", fw)
	}
	for i := range y {
		row := rows[i*fw : (i+1)*fw]
		if row[0] != 1 {
			return fmt.Errorf("logreg: bias slot %v at row %d, want 1", row[0], i)
		}
		for j, v := range row[1:] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("logreg: feature %v at row %d, column %d", v, i, j)
			}
		}
		if l := y[i]; l < 0 || l >= classes {
			return fmt.Errorf("logreg: label %d out of range at row %d", l, i)
		}
	}
	return nil
}

// columnStats returns what standardises each feature column: its mean,
// and the reciprocal of its standard deviation or of the typical column's
// (the root of the mean variance over the columns that vary), whichever is
// larger. Dividing a column by its own deviation bounds every column's
// spread by 1, so one step size is stable for all of them; the floor is
// there because a plain z-score also blows the narrow columns — rarely
// used leaf slots — up to the width of the informative ones, and the fit
// then leans on them: on the benchmark's xgb datasets that cost up to
// 0.3 % macro-F1 on the unrevealed edges, which the floor gives back.
//
// The sums are of deviations from row 0, in one pass, so a constant column
// sums to exactly zero whatever its value: it standardises to all zeros
// and earns no weight. Finite inputs whose squares overflow are rejected
// by column.
func columnStats(rows []float64, fw int) (mean, inv []float64, err error) {
	nf := fw - 1
	n := float64(len(rows) / fw)
	mean = make([]float64, nf) // Σ(x − x0), then the mean
	inv = make([]float64, nf)  // Σ(x − x0)², then the variance, then 1/scale
	x0 := rows[1:fw]
	for i := 0; i < len(rows); i += fw {
		for j, v := range rows[i+1 : i+fw] {
			d := v - x0[j]
			mean[j] += d
			inv[j] += d * d
		}
	}
	typical, varying := 0.0, 0
	for j := range mean {
		variance := (inv[j] - mean[j]*mean[j]/n) / n
		if math.IsNaN(variance) || math.IsInf(variance, 0) {
			return nil, nil, fmt.Errorf("logreg: column %d overflows", j)
		}
		mean[j] = x0[j] + mean[j]/n
		inv[j] = math.Max(variance, 0)
		if variance > 0 {
			typical += variance
			varying++
		}
	}
	if varying == 0 {
		typical, varying = 1, 1
	}
	typical /= float64(varying)
	for j, variance := range inv {
		inv[j] = 1 / math.Sqrt(math.Max(variance, typical))
	}
	return mean, inv, nil
}

// fit standardises the fw-wide bias-first rows in place, runs the stopped
// SGD on them and returns the bias-first weights of the standardised
// problem with the number of epochs run.
func fit(arena []float64, fw int, y []int, cfg Config, mean, inv []float64) ([]float64, int) {
	classes := cfg.Classes
	for i := 0; i < len(arena); i += fw {
		row := arena[i+1 : i+fw]
		for j, v := range row {
			row[j] = (v - mean[j]) * inv[j]
		}
	}
	// The hold-out is a seeded sample, not a prefix: callers hand rows
	// over in an order that means something (LabeledEdges is in node
	// order).
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int, len(y))
	for i := range idx {
		idx[i] = i
	}
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	nHold := len(y) / holdOutDiv
	if nHold < minHoldOut {
		nHold = 0
	}
	hold, train := idx[:nHold], idx[nHold:]

	wb := make([]float64, classes*fw) // bias-first training weights
	best := make([]float64, classes*fw)
	grads := make([]float64, classes*fw)
	z := make([]float64, cfg.BatchSize*classes)
	// forward leaves the class probabilities of the batch's rows in z.
	forward := func(batch []int) []float64 {
		// A shuffled epoch visits every arena row in random order, so
		// the batch panel starts cold no matter how it is read, and the
		// GEMM's two-row streams would serialize on those misses. The
		// warm pass touches one element per cache line across ALL the
		// batch's rows first — independent loads the core keeps many in
		// flight at a time — so the gather-fused kernels then run
		// against warm lines (measured ~1.6× on the combiner shape
		// versus letting the kernels fault the rows in; interleaving
		// these loads INTO the kernel measured slower — the outstanding
		// misses starve the compute's own cache traffic of fill
		// buffers).
		warm := 0.0
		for _, i := range batch {
			row := arena[i*fw : (i+1)*fw]
			for j := 0; j < fw; j += 8 {
				warm += row[j]
			}
		}
		gatherSink = warm
		zb := z[:len(batch)*classes]
		clear(zb)
		tensor.MatMulABTAccGather(zb, arena, batch, wb, classes, fw)
		for r := range batch {
			zr := zb[r*classes : (r+1)*classes]
			tensor.Softmax(zr, zr)
		}
		return zb
	}

	lr := cfg.LR
	// All-zero weights predict every class equally.
	bestLoss := float64(nHold) * math.Log(float64(classes))
	epochs := 0
	for misses := 0; epochs < cfg.Epochs && misses < stopPatience; epochs++ {
		rng.Shuffle(len(train), func(i, j int) { train[i], train[j] = train[j], train[i] })
		for start := 0; start < len(train); start += cfg.BatchSize {
			batch := train[start:min(start+cfg.BatchSize, len(train))]
			zb := forward(batch)
			for r, i := range batch {
				zb[r*classes+y[i]] -= 1
			}
			tensor.MatMulATBGatherB(grads, zb, arena, batch, classes, fw)
			scale := lr / float64(len(batch))
			for i, g := range grads {
				wb[i] -= scale*g + lr*cfg.L2*wb[i]
			}
		}
		if nHold == 0 {
			continue
		}
		loss := 0.0
		for start := 0; start < nHold; start += cfg.BatchSize {
			batch := hold[start:min(start+cfg.BatchSize, nHold)]
			zb := forward(batch)
			for r, i := range batch {
				loss -= math.Log(math.Max(zb[r*classes+y[i]], 1e-12))
			}
		}
		if loss < bestLoss {
			bestLoss = loss
			copy(best, wb)
		} else {
			copy(wb, best)
			lr /= 2
			misses++
		}
	}
	return wb, epochs
}

// gatherSink keeps the warm-pass loads in fit observable so the compiler
// cannot delete them.
var gatherSink float64

// logits writes raw class scores for x into out.
func (m *Model) logits(x []float64, out []float64) {
	nf := m.Features
	for c := 0; c < m.Classes; c++ {
		base := c * (nf + 1)
		s := m.W[base+nf]
		for f, v := range x {
			s += m.W[base+f] * v
		}
		out[c] = s
	}
}

// PredictProba returns class probabilities for x.
func (m *Model) PredictProba(x []float64) []float64 {
	out := make([]float64, m.Classes)
	m.PredictProbaInto(x, out)
	return out
}

// PredictProbaInto writes class probabilities for x into out (length
// Classes) without allocating — the batch-prediction hot path of the
// Phase III combiner.
func (m *Model) PredictProbaInto(x, out []float64) {
	if len(x) != m.Features {
		panic(fmt.Sprintf("logreg: expected %d features, got %d", m.Features, len(x)))
	}
	if len(out) != m.Classes {
		panic(fmt.Sprintf("logreg: expected %d-class output, got %d", m.Classes, len(out)))
	}
	m.logits(x, out)
	tensor.Softmax(out, out)
}

// Predict returns the argmax class for x.
func (m *Model) Predict(x []float64) int {
	return tensor.ArgMax(m.PredictProba(x))
}
