package gbdt

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSiblingSubtractionProperty is the numeric contract of histogram
// subtraction, over random stable partitions of random rows: the derived
// sibling (parent − accumulated child) has exactly the counts of the
// directly accumulated one in every bin; a bin whose rows all went to the
// accumulated child reads exactly 0 / 0 / 0 (its child sum repeats the
// parent's additions term for term); and every derived sum is within the
// recursive-summation bound of the direct one, n·2⁻⁵²·Σ|x| with n and Σ
// over the parent's rows in that bin — (n−1)u·Σ for the parent's sum, at
// most (n−2)u·Σ for the two children's together, u·Σ for the subtraction,
// u = 2⁻⁵³.
func TestSiblingSubtractionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	worst := 0.0
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(3000)
		nb := 1 + rng.Intn(maxBins)
		b := &binning{counts: []int{nb}, codes: [][]uint8{make([]uint8, n)}}
		rows := make([]int32, n)
		g := make([]float64, n)
		h := make([]float64, n)
		scale := math.Pow(10, float64(rng.Intn(7)-3))
		for i := range rows {
			rows[i] = int32(i)
			b.codes[0][i] = uint8(rng.Intn(nb))
			g[i] = rng.NormFloat64() * scale
			h[i] = math.Max(rng.Float64()*scale, 1e-12)
		}
		// A few bins go to one side whole, so "all rows to the accumulated
		// child" and "no row to it" both occur.
		side := make([]int, nb) // 0 = split at random, 1 = all to child, 2 = all to sibling
		for k := range side {
			if rng.Intn(4) == 0 {
				side[k] = 1 + rng.Intn(2)
			}
		}
		p := rng.Float64()
		var crows, srows []int32
		var cg, ch, sg, sh []float64
		for i := range rows {
			toChild := rng.Float64() < p
			if s := side[b.codes[0][i]]; s != 0 {
				toChild = s == 1
			}
			if toChild {
				crows, cg, ch = append(crows, rows[i]), append(cg, g[i]), append(ch, h[i])
			} else {
				srows, sg, sh = append(srows, rows[i]), append(sg, g[i]), append(sh, h[i])
			}
		}
		cols := []int{0}
		parent, child, direct := newHistogram(1), newHistogram(1), newHistogram(1)
		parent.accumulate(b, cols, rows, g, h)
		child.accumulate(b, cols, crows, cg, ch)
		direct.accumulate(b, cols, srows, sg, sh)
		total := slices.Clone(parent.c[:nb])
		parent.subtract(child, b, cols) // parent is now the derived sibling

		absG := make([]float64, nb)
		absH := make([]float64, nb)
		for i := range rows {
			absG[b.codes[0][i]] += math.Abs(g[i])
			absH[b.codes[0][i]] += math.Abs(h[i])
		}
		for k := 0; k < nb; k++ {
			if parent.c[k] != direct.c[k] {
				t.Fatalf("trial %d bin %d: derived count %d, direct %d", trial, k, parent.c[k], direct.c[k])
			}
			if child.c[k] == total[k] && (parent.g[k] != 0 || parent.h[k] != 0 || parent.c[k] != 0) {
				t.Fatalf("trial %d bin %d: every row went to the accumulated child, sibling reads %v / %v / %d",
					trial, k, parent.g[k], parent.h[k], parent.c[k])
			}
			nk := float64(total[k])
			for _, s := range []struct {
				name                 string
				derived, direct, abs float64
			}{{"g", parent.g[k], direct.g[k], absG[k]}, {"h", parent.h[k], direct.h[k], absH[k]}} {
				bound := nk * 0x1p-52 * s.abs
				diff := math.Abs(s.derived - s.direct)
				if diff > bound {
					t.Fatalf("trial %d bin %d: derived %s sum %v vs direct %v: |diff| %g over the bound %g (n=%v)",
						trial, k, s.name, s.derived, s.direct, diff, bound, nk)
				}
				if bound > 0 {
					worst = math.Max(worst, diff/bound)
				}
			}
		}
	}
	t.Logf("largest |derived − direct| seen: %.3g of the bound", worst)
}

// nanColumnFixture has a column that is NaN on a fifth of the rows and
// separates the two classes on the rest, beside two columns of noise.
func nanColumnFixture(rng *rand.Rand, n int) ([][]float64, []int) {
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := rng.Intn(2)
		v := float64(rng.Intn(12) + 5*c)
		if rng.Intn(5) == 0 {
			v = math.NaN()
		}
		X[i], y[i] = []float64{v, rng.NormFloat64(), float64(rng.Intn(4))}, c
	}
	return X, y
}

// TestNaNScannedWhereItIsRouted: a NaN feature value compares false, so
// the partition and Forest.walk send it right of every threshold; the scan
// must count it there too, or the gain it reports describes a split the
// tree does not make. For every split the builder takes on a NaN-bearing
// column, the rows the scan counted left of the chosen threshold must be
// the rows the partition sent left; and every training row must walk to
// the leaf the builder settled it in.
func TestNaNScannedWhereItIsRouted(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X, y := nanColumnFixture(rng, 400)
	n, classes := len(X), 2
	cfg := Config{Classes: classes, MaxDepth: 4, Seed: 1}
	cfg.defaults()
	margins := make([]float64, n*classes)
	tr := newTrainer(buildBins(X, 3), cfg, margins)
	// Round 0 of Train: uniform probabilities.
	grad := make([]float64, n)
	hess := make([]float64, n)
	for i := range grad {
		grad[i] = 0.5
		if y[i] == 1 {
			grad[i] = -0.5
		}
		hess[i] = 0.25
	}
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	tree := tr.buildTree(grad, hess, rows, []int{0, 1, 2}, 1)
	forest := flatten([][]*Tree{{tree}})

	// The builder added each row's leaf value to a zero margin.
	for i := range X {
		if v, _ := forest.walk(0, X[i]); v != margins[i*classes+1] {
			t.Fatalf("row %d (x0=%v): walk reaches leaf value %v, the builder settled it at %v", i, X[i][0], v, margins[i*classes+1])
		}
	}

	// Rows per node, by the tree's own routing (just shown to be the
	// builder's).
	inNode := make([][]int32, len(tree.Nodes))
	for i := range X {
		for k := 0; ; {
			inNode[k] = append(inNode[k], int32(i))
			nd := &tree.Nodes[k]
			if nd.Feature < 0 {
				break
			}
			if X[i][nd.Feature] < nd.Threshold {
				k = nd.Left
			} else {
				k = nd.Right
			}
		}
	}
	splits, withNaN := 0, 0
	for k, nd := range tree.Nodes {
		if nd.Feature != 0 {
			continue
		}
		splits++
		g := make([]float64, len(inNode[k]))
		hs := newHistogram(3)
		hs.accumulate(tr.bins, []int{0}, inNode[k], g, g)
		_, _, hc := hs.feature(0, tr.bins.counts[0])
		lo, hi := tr.bins.lo[0], tr.bins.hi[0]
		// Replay the scan's candidate walk to the chosen threshold.
		scannedLeft, found, prev := 0, false, -1
		for b, c := range hc {
			if c == 0 {
				continue
			}
			if prev >= 0 && (hi[prev]+lo[b])/2 == nd.Threshold {
				found = true
				break
			}
			scannedLeft += int(c)
			prev = b
		}
		if !found {
			t.Fatalf("node %d: threshold %v is no candidate of its histogram", k, nd.Threshold)
		}
		sentLeft, nans := 0, 0
		for _, i := range inNode[k] {
			if X[i][0] < nd.Threshold {
				sentLeft++
			}
			if math.IsNaN(X[i][0]) {
				nans++
			}
		}
		if nans > 0 {
			withNaN++
		}
		if scannedLeft != sentLeft {
			t.Fatalf("node %d splits x0 < %v: the scan counted %d rows left, the partition sends %d (%d NaN rows in the node)",
				k, nd.Threshold, scannedLeft, sentLeft, nans)
		}
	}
	if splits == 0 || withNaN == 0 {
		t.Fatalf("fixture took %d splits on the NaN column, %d of them with NaN rows in the node: nothing tested", splits, withNaN)
	}
}

// TestNaNBinIsLast pins the binning side of the same rule on both binning
// strategies: NaN rows get the column's last bin to themselves, real
// values keep bins whose [lo, hi] contains them, and the bin budget holds.
func TestNaNBinIsLast(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, distinct := range []int{1, 40, maxBins - 1, maxBins, 5000} {
		n := 3 * distinct
		if n < 600 {
			n = 600
		}
		X := make([][]float64, n)
		for i := range X {
			v := float64(rng.Intn(distinct))
			if i%7 == 3 {
				v = math.NaN()
			}
			X[i] = []float64{v}
		}
		b := buildBins(X, 1)
		nb := b.counts[0]
		if nb > maxBins {
			t.Fatalf("distinct=%d: %d bins", distinct, nb)
		}
		if !math.IsNaN(b.lo[0][nb-1]) || !math.IsNaN(b.hi[0][nb-1]) {
			t.Fatalf("distinct=%d: last bin is [%v, %v], want the NaN bin", distinct, b.lo[0][nb-1], b.hi[0][nb-1])
		}
		for i, row := range X {
			c := int(b.codes[0][i])
			if math.IsNaN(row[0]) != (c == nb-1) {
				t.Fatalf("distinct=%d: row %d value %v coded into bin %d of %d", distinct, i, row[0], c, nb)
			}
			if !math.IsNaN(row[0]) && (row[0] < b.lo[0][c] || row[0] > b.hi[0][c]) {
				t.Fatalf("distinct=%d: row %d value %v coded into bin %d [%v, %v]", distinct, i, row[0], c, b.lo[0][c], b.hi[0][c])
			}
			if b.vals[0][i] != row[0] && !math.IsNaN(row[0]) {
				t.Fatalf("distinct=%d: column copy holds %v for row %d, X holds %v", distinct, b.vals[0][i], i, row[0])
			}
		}
	}
}
