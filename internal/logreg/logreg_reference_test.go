package logreg

import (
	"fmt"
	"math"
	"math/rand"

	"locec/internal/tensor"
)

// trainReference is the row-at-a-time scalar statement of Train's
// algorithm, the equivalence oracle for the GEMM-batched solver: the same
// shifted standardisation sums and scale floor, the same seeded hold-out
// draw and epoch shuffles, the same stop decisions, the same fold-back —
// written with plain loops over [][]float64 and no arena, gather kernel or
// warm pass.
// The two produce bit-identical weights and run the same number of
// epochs: Train's kernels preserve this loop's per-element accumulation
// order (logits sum the bias first and then features in ascending order;
// each gradient cell sums its batch rows in shuffled-index order; the
// held-out loss sums rows in draw order), and both consume the seeded RNG
// for the hold-out draw and then once per epoch. logreg_equiv_test.go
// pins that contract with exact ==. Only the input checks (flatten and
// validate, whose flat rows are then dropped) and Config.defaults are
// shared with Train.
func trainReference(X [][]float64, y []int, cfg Config) (*Model, error) {
	cfg.defaults()
	rows, err := flatten(X, y)
	if err != nil {
		return nil, err
	}
	if err := validate(rows, y, cfg.Classes); err != nil {
		return nil, err
	}
	n, nf, classes := len(X), len(X[0]), cfg.Classes

	// Standardise: centre every column, and divide it by its standard
	// deviation or by the root of the mean variance of the columns that
	// vary, whichever is larger. Sums are of deviations off row 0.
	mean := make([]float64, nf)
	variance := make([]float64, nf)
	typical, varying := 0.0, 0
	for j := 0; j < nf; j++ {
		s1, s2 := 0.0, 0.0
		for i := 0; i < n; i++ {
			d := X[i][j] - X[0][j]
			s1 += d
			s2 += d * d
		}
		v := (s2 - s1*s1/float64(n)) / float64(n)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("logreg: column %d overflows", j)
		}
		mean[j] = X[0][j] + s1/float64(n)
		if v > 0 {
			variance[j] = v
			typical += v
			varying++
		}
	}
	if varying == 0 {
		typical, varying = 1, 1
	}
	typical /= float64(varying)
	inv := make([]float64, nf)
	for j, v := range variance {
		inv[j] = 1 / math.Sqrt(math.Max(v, typical))
	}
	Z := make([][]float64, n)
	for i, x := range X {
		Z[i] = make([]float64, nf)
		for j, v := range x {
			Z[i][j] = (v - mean[j]) * inv[j]
		}
	}

	// Hold out a seeded tenth, unless that is fewer than 30 rows.
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	nHold := n / 10
	if nHold < 30 {
		nHold = 0
	}
	hold, train := idx[:nHold], idx[nHold:]

	// s is the model of the standardised problem, bias last.
	s := &Model{Classes: classes, Features: nf, W: make([]float64, classes*(nf+1))}
	best := make([]float64, len(s.W))
	grads := make([]float64, len(s.W))
	probs := make([]float64, classes)
	lr := cfg.LR
	// The mark to beat starts at the untrained model's loss.
	bestLoss := float64(nHold) * math.Log(float64(classes))
	epochs, misses := 0, 0
	for epochs < cfg.Epochs && misses < 3 {
		epochs++
		rng.Shuffle(len(train), func(i, j int) { train[i], train[j] = train[j], train[i] })
		for start := 0; start < len(train); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(train))
			clear(grads)
			for _, i := range train[start:end] {
				s.logits(Z[i], probs)
				tensor.Softmax(probs, probs)
				for c := 0; c < classes; c++ {
					g := probs[c]
					if y[i] == c {
						g -= 1
					}
					base := c * (nf + 1)
					for f, v := range Z[i] {
						grads[base+f] += g * v
					}
					grads[base+nf] += g // bias
				}
			}
			scale := lr / float64(end-start)
			for i := range s.W {
				s.W[i] -= scale*grads[i] + lr*cfg.L2*s.W[i]
			}
		}
		if nHold == 0 {
			continue
		}
		loss := 0.0
		for _, i := range hold {
			s.logits(Z[i], probs)
			tensor.Softmax(probs, probs)
			loss -= math.Log(math.Max(probs[y[i]], 1e-12))
		}
		if loss < bestLoss {
			bestLoss = loss
			copy(best, s.W)
		} else {
			copy(s.W, best)
			lr /= 2
			misses++
		}
	}

	// Fold the standardisation back so the model takes raw features.
	m := &Model{Classes: classes, Features: nf, W: make([]float64, len(s.W)), EpochsRun: epochs}
	for c := 0; c < classes; c++ {
		base := c * (nf + 1)
		bias := s.W[base+nf]
		for j := 0; j < nf; j++ {
			m.W[base+j] = s.W[base+j] * inv[j]
			bias -= m.W[base+j] * mean[j]
		}
		m.W[base+nf] = bias
	}
	return m, nil
}
