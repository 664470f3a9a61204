// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact, per DESIGN.md's experiment index). Each
// iteration performs the full experiment at benchmark scale; run with
//
//	go test -bench=. -benchmem
//
// For the paper-scale renderings use cmd/locec-experiments instead.
package locec_test

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"locec/internal/experiments"
	"locec/internal/graph"
	"locec/internal/serve"
	"locec/internal/testutil/trained"
)

// benchOpt returns the benchmark-scale experiment options.
func benchOpt() experiments.Options {
	return experiments.Quick()
}

// smallOpt further shrinks the population for the sweep experiments.
func smallOpt() experiments.Options {
	opt := experiments.Quick()
	opt.Users = 250
	return opt
}

func BenchmarkTable1Survey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2GroupNames(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2CommonGroups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3Moments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4InteractionCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10aCommunitySize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10a(benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10bKSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10b(smallOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4EdgeClassification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11LabelSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(smallOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5CommunityClassification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6PhaseTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table6(benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12aScaleNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12a(smallOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12bScaleServers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12b(benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13TypeDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14Advertising(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14(benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeEdgeLookup measures locec-serve single-edge lookup
// throughput (lookups/sec ≈ 1e9 / ns/op) through the full handler stack —
// the serving layer's hot path. Snapshot construction happens once outside
// the timed region, from the shared trained artifact.
func BenchmarkServeEdgeLookup(b *testing.B) {
	s, err := serve.New(serve.Config{
		Artifact: trained.Artifact(b, 200, "labelprop", false).Path,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	var path string
	s.Dataset().G.ForEachEdge(func(u, v graph.NodeID) {
		if path == "" {
			path = fmt.Sprintf("/v1/edge?u=%d&v=%d", u, v)
		}
	})
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				// Errorf, not Fatalf: FailNow must not be called from
				// RunParallel worker goroutines.
				b.Errorf("status %d", rec.Code)
				return
			}
		}
	})
}

// BenchmarkAblationStudy regenerates the design-choice study of
// EXPERIMENTS.md (detector, row ordering, combiner) — an extension beyond
// the paper's artifacts.
func BenchmarkAblationStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablations(smallOpt()); err != nil {
			b.Fatal(err)
		}
	}
}
