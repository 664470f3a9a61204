package baselines

import (
	"math"
	"math/rand"

	"locec/internal/graph"
	"locec/internal/logreg"
	"locec/internal/social"
)

// Economix is the matrix-factorization baseline of Aggarwal et al. (ICDE
// 2017), adapted as the paper describes: since raw communication text is
// unavailable, each interaction dimension together with its bucketed count
// becomes a "word", so every edge is a small document. The edge×word count
// matrix is factorized into latent edge vectors with a structural
// co-regularizer pulling adjacent edges (edges sharing an endpoint)
// together; a logistic regression head over the latent vectors then
// propagates the revealed labels.
type Economix struct {
	// LatentDim is the factorization rank (default 16).
	LatentDim int
	// Epochs of SGD over observed cells (default 15).
	Epochs int
	// LR is the SGD step size (default 0.05).
	LR float64
	// Alpha weights the structural co-regularization (default 0.1).
	Alpha float64
	// Lambda is L2 on the factors (default 0.01).
	Lambda float64
	// Seed drives initialization and sampling.
	Seed int64

	edgeIdx map[uint64]int
	U       [][]float64 // latent edge factors
	head    *logreg.Model
}

// Name implements EdgeClassifier.
func (e *Economix) Name() string { return "Economix" }

func (e *Economix) defaults() {
	if e.LatentDim <= 0 {
		e.LatentDim = 16
	}
	if e.Epochs <= 0 {
		e.Epochs = 15
	}
	if e.LR <= 0 {
		e.LR = 0.01
	}
	if e.Alpha <= 0 {
		e.Alpha = 0.1
	}
	if e.Lambda <= 0 {
		e.Lambda = 0.01
	}
}

// countBucket discretizes an interaction count into a small vocabulary of
// intensity words: 0 (absent, no word), 1, 2, 3-4, 5-8, 9+.
func countBucket(c float64) int {
	switch {
	case c <= 0:
		return -1
	case c < 2:
		return 0
	case c < 3:
		return 1
	case c < 5:
		return 2
	case c < 9:
		return 3
	default:
		return 4
	}
}

const bucketsPerDim = 5

// profileWords is the number of additional vocabulary entries derived from
// endpoint-profile similarity (age gap, region distance, gender mix).
// The original Economix consumes communication text; our substrate has
// none for most pairs, so profile metadata stands in as the always-present
// "content" channel (documented in DESIGN.md).
const profileWords = 8

// words converts an edge's interaction vector into (wordID, weight) pairs.
func words(iv []float64) [][2]float64 {
	var out [][2]float64
	for d, c := range iv {
		b := countBucket(c)
		if b < 0 {
			continue
		}
		w := d*bucketsPerDim + b
		out = append(out, [2]float64{float64(w), 1 + math.Log1p(c)})
	}
	return out
}

// pairWords derives profile-similarity words for an edge from the two
// endpoint feature vectors (layout: gender, age/80, regionX, regionY,
// activity — the generator's encoding; extra dims are ignored).
func pairWords(base int, fu, fv []float64) [][2]float64 {
	if len(fu) < 4 || len(fv) < 4 {
		return nil
	}
	var out [][2]float64
	ageGap := math.Abs(fu[1]-fv[1]) * 80
	switch {
	case ageGap < 3:
		out = append(out, [2]float64{float64(base + 0), 1})
	case ageGap < 10:
		out = append(out, [2]float64{float64(base + 1), 1})
	default:
		out = append(out, [2]float64{float64(base + 2), 1})
	}
	dx, dy := fu[2]-fv[2], fu[3]-fv[3]
	if math.Sqrt(dx*dx+dy*dy) < 0.05 {
		out = append(out, [2]float64{float64(base + 3), 1})
	} else {
		out = append(out, [2]float64{float64(base + 4), 1})
	}
	if fu[0] == fv[0] {
		out = append(out, [2]float64{float64(base + 5), 1})
	} else {
		out = append(out, [2]float64{float64(base + 6), 1})
	}
	return out
}

// Fit implements EdgeClassifier.
func (e *Economix) Fit(ds *social.Dataset) error {
	e.defaults()
	rng := rand.New(rand.NewSource(e.Seed))
	// Index edges and collect per-edge documents.
	m := ds.G.NumEdges()
	e.edgeIdx = make(map[uint64]int, m)
	edgeEnds := make([]graph.Edge, 0, m)
	ds.G.ForEachEdge(func(u, v graph.NodeID) {
		k := (graph.Edge{U: u, V: v}).Key()
		e.edgeIdx[k] = len(edgeEnds)
		edgeEnds = append(edgeEnds, graph.Edge{U: u, V: v})
	})
	interVocab := int(social.NumInteractionDims) * bucketsPerDim
	docs := make([][][2]float64, m)
	for i, ee := range edgeEnds {
		doc := words(ds.InteractionVector(ee.U, ee.V))
		doc = append(doc, pairWords(interVocab, ds.UserFeatures[ee.U], ds.UserFeatures[ee.V])...)
		docs[i] = doc
	}
	vocab := interVocab + profileWords
	// Init factors.
	d := e.LatentDim
	e.U = make([][]float64, m)
	for i := range e.U {
		e.U[i] = make([]float64, d)
		for j := range e.U[i] {
			e.U[i][j] = rng.NormFloat64() * 0.1
		}
	}
	V := make([][]float64, vocab)
	for i := range V {
		V[i] = make([]float64, d)
		for j := range V[i] {
			V[i][j] = rng.NormFloat64() * 0.1
		}
	}
	// Incident edge lists for structural sampling.
	incident := make([][]int, ds.G.NumNodes())
	for i, ee := range edgeEnds {
		incident[ee.U] = append(incident[ee.U], i)
		incident[ee.V] = append(incident[ee.V], i)
	}
	perm := rng.Perm(m)
	for epoch := 0; epoch < e.Epochs; epoch++ {
		rng.Shuffle(m, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for _, ei := range perm {
			ue := e.U[ei]
			// Observed word cells. The residual is clipped to keep the
			// SGD stable regardless of count outliers.
			for _, ww := range docs[ei] {
				wi, target := int(ww[0]), ww[1]
				vw := V[wi]
				err := clip(dot(ue, vw)-target, 5)
				for j := 0; j < d; j++ {
					gu := err*vw[j] + e.Lambda*ue[j]
					gv := err*ue[j] + e.Lambda*vw[j]
					ue[j] = clip(ue[j]-e.LR*gu, 10)
					vw[j] = clip(vw[j]-e.LR*gv, 10)
				}
			}
			// One sampled negative word (target 0) for contrast.
			wi := rng.Intn(vocab)
			vw := V[wi]
			pred := clip(dot(ue, vw), 5)
			for j := 0; j < d; j++ {
				ue[j] = clip(ue[j]-e.LR*(pred*vw[j]), 10)
				vw[j] = clip(vw[j]-e.LR*(pred*ue[j]), 10)
			}
			// Structural pull toward up to two incident edges.
			ee := edgeEnds[ei]
			for _, end := range [2]graph.NodeID{ee.U, ee.V} {
				inc := incident[end]
				if len(inc) < 2 {
					continue
				}
				other := inc[rng.Intn(len(inc))]
				if other == ei {
					continue
				}
				uo := e.U[other]
				for j := 0; j < d; j++ {
					diff := ue[j] - uo[j]
					ue[j] -= e.LR * e.Alpha * diff
					uo[j] += e.LR * e.Alpha * diff
				}
			}
		}
	}
	// Label head on latent vectors of revealed edges.
	labeled := ds.LabeledEdges()
	if len(labeled) == 0 {
		e.head = nil
		return nil
	}
	X := make([][]float64, 0, len(labeled))
	y := make([]int, 0, len(labeled))
	for _, k := range labeled {
		X = append(X, e.U[e.edgeIdx[k]])
		y = append(y, int(ds.TrueLabel(k)))
	}
	head, err := logreg.Train(X, y, logreg.Config{
		Classes: social.NumLabels, Epochs: 60, LR: 0.2, L2: 1e-4, Seed: e.Seed + 1,
	})
	if err != nil {
		return err
	}
	e.head = head
	return nil
}

// PredictEdges implements EdgeClassifier.
func (e *Economix) PredictEdges(_ *social.Dataset, keys []uint64) []social.Label {
	out := make([]social.Label, len(keys))
	for i, k := range keys {
		if e.head == nil {
			out[i] = social.Unlabeled
			continue
		}
		idx, ok := e.edgeIdx[k]
		if !ok {
			out[i] = social.Unlabeled
			continue
		}
		out[i] = social.Label(e.head.Predict(e.U[idx]))
	}
	return out
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func clip(v, lim float64) float64 {
	if v > lim {
		return lim
	}
	if v < -lim {
		return -lim
	}
	return v
}
