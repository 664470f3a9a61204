package gbdt

import (
	"testing"
)

func BenchmarkTrain500x26(b *testing.B) {
	X, y := blobs3(500, 1)
	// Widen to 26 features, the LoCEC-XGB pooled width.
	wide := make([][]float64, len(X))
	for i, row := range X {
		w := make([]float64, 26)
		for j := range w {
			w[j] = row[j%3] * float64(j+1)
		}
		wide[i] = w
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(wide, y, Config{Classes: 3, Rounds: 25, MaxDepth: 4, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	X, y := blobs3(300, 2)
	m, err := Train(X, y, Config{Classes: 3, Rounds: 25, MaxDepth: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictProba(X[i%len(X)])
	}
}

// BenchmarkTrainReference500x26 is the retained exact trainer on the
// same workload as BenchmarkTrain500x26 — the pair is the speedup
// receipt for the histogram rewrite.
func BenchmarkTrainReference500x26(b *testing.B) {
	X, y := blobs3(500, 1)
	wide := make([][]float64, len(X))
	for i, row := range X {
		w := make([]float64, 26)
		for j := range w {
			w[j] = row[j%3] * float64(j+1)
		}
		wide[i] = w
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trainReference(wide, y, Config{Classes: 3, Rounds: 25, MaxDepth: 4, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
