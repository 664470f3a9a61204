package gbdt

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// decodeHistogram turns raw fuzz bytes into a scanHistogram input: a bin
// count, per-bin gradient/hessian/count/edge values, node totals, and
// regularization knobs. All float payloads pass through unchecked, so the
// fuzzer freely reaches NaN, ±Inf, empty bins, and inverted edges.
func decodeHistogram(data []byte) (hg, hh []float64, hc []int32, lo, hi []float64, G, H, lambda, gamma, minChild float64, ok bool) {
	const header = 5 * 8
	if len(data) < header+1 {
		return nil, nil, nil, nil, nil, 0, 0, 0, 0, 0, false
	}
	f64 := func(off int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
	}
	G, H = f64(0), f64(8)
	lambda, gamma, minChild = f64(16), f64(24), f64(32)
	body := data[header:]
	nb := int(body[0])%maxBins + 1
	body = body[1:]
	const binBytes = 8 + 8 + 4 + 8 + 8 // g, h, count, lo, hi
	if len(body) < nb*binBytes {
		nb = len(body) / binBytes
	}
	if nb == 0 {
		return nil, nil, nil, nil, nil, 0, 0, 0, 0, 0, false
	}
	hg = make([]float64, nb)
	hh = make([]float64, nb)
	hc = make([]int32, nb)
	lo = make([]float64, nb)
	hi = make([]float64, nb)
	for b := 0; b < nb; b++ {
		off := b * binBytes
		hg[b] = math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
		hh[b] = math.Float64frombits(binary.LittleEndian.Uint64(body[off+8:]))
		hc[b] = int32(binary.LittleEndian.Uint32(body[off+16:]))
		lo[b] = math.Float64frombits(binary.LittleEndian.Uint64(body[off+20:]))
		hi[b] = math.Float64frombits(binary.LittleEndian.Uint64(body[off+28:]))
	}
	return hg, hh, hc, lo, hi, G, H, lambda, gamma, minChild, true
}

// FuzzHistogramSplit hammers the split-scan kernel with hostile
// histograms — NaN/±Inf gradients and edges, empty bins, constant
// features — asserting it never panics and never emits an invalid split:
// an emitted candidate must carry a finite threshold and a finite gain
// strictly above gamma.
func FuzzHistogramSplit(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		hg, hh, hc, lo, hi, G, H, lambda, gamma, minChild, ok := decodeHistogram(data)
		if !ok {
			return
		}
		c := scanHistogram(hg, hh, hc, lo, hi, G, H, lambda, gamma, minChild)
		if !c.ok {
			return
		}
		if !isFinite(c.thresh) {
			t.Fatalf("emitted non-finite threshold %v", c.thresh)
		}
		if !isFinite(c.gain) {
			t.Fatalf("emitted non-finite gain %v", c.gain)
		}
		// gamma can itself be NaN under fuzzing; the comparison inside
		// scanHistogram then rejects every candidate, so reaching here
		// means gamma was comparable and the gain must clear it.
		if !(c.gain > gamma) {
			t.Fatalf("emitted gain %v not above gamma %v", c.gain, gamma)
		}
	})
}

// FuzzHistogramTrain drives the full binning + training pipeline on tiny
// hostile matrices (including NaN/Inf feature values) and checks the
// model stays structurally sound.
func FuzzHistogramTrain(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := int(data[0])%12 + 1
		nf := int(data[1])%4 + 1
		classes := int(data[2])%3 + 2
		body := data[3:]
		if len(body) < n*(nf*8+1) {
			return
		}
		X := make([][]float64, n)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			off := i * (nf*8 + 1)
			row := make([]float64, nf)
			for j := 0; j < nf; j++ {
				row[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[off+j*8:]))
			}
			X[i] = row
			y[i] = int(body[off+nf*8]) % classes
		}
		cfg := Config{Classes: classes, Rounds: 2, MaxDepth: 3, Seed: 1}
		m, err := Train(X, y, cfg)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := decode(buf.Bytes()); err != nil {
			t.Fatalf("trained forest invalid: %v", err)
		}
	})
}

// FuzzModelLoad throws arbitrary bytes at Load, seeded with a saved model,
// the JSON of an older one and corrupt forests (a backward child and a
// truncated tail among them). Load may refuse; a model it accepts must
// predict without panicking or looping and save to bytes that load back
// to the same forest.
func FuzzModelLoad(f *testing.F) {
	X, y := blobs3(60, 3)
	m, err := Train(X, y, Config{Classes: 3, Rounds: 2, MaxDepth: 3, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved(f, m))
	js, err := os.ReadFile(filepath.Join("testdata", "model-json.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(js)
	for _, b := range corruptForests(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		m.PredictProba(make([]float64, m.features))
		b := saved(t, m)
		back, err := Load(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("a loaded model saves to bytes Load refuses: %v", err)
		}
		if !sameForest(back, m) && !hasNaN(m) {
			t.Fatal("Save(Load(b)) loads to another forest")
		}
	})
}

// hasNaN reports whether m's configuration or forest holds a NaN, which
// compares unequal to itself after a faithful round trip.
func hasNaN(m *Model) bool {
	c := m.cfg
	for _, v := range append([]float64{c.LearningRate, c.Lambda, c.Gamma, c.MinChildWeight, c.Subsample, c.ColSample},
		append(m.forest.Threshold, m.forest.Value...)...) {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}
