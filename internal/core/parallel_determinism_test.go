package core

import (
	"math/rand"
	"slices"
	"testing"

	"locec/internal/testutil"
	"locec/internal/wechat"
)

// parallelLocalConfig is localConfig with the GBDT trainer fanned out to
// 8 workers — the histogram trainer guarantees bit-identical trees for
// any worker count, so everything downstream (frozen replay, the bit-exact
// incremental oracle) must behave exactly as in the serial configuration.
func parallelLocalConfig(d DetectorKind) Config {
	return Config{
		Division:   DivisionConfig{Detector: d, Seed: 1},
		Classifier: &XGBClassifier{Seed: 1, Workers: 8},
		Seed:       1,
	}
}

// TestIncrementalOracleParallelTrainer: the incremental path's bit-exact
// equivalence oracle must hold with the parallel GBDT trainer across all
// three local detectors — a fast-but-nondeterministic trainer would fail
// here first.
func TestIncrementalOracleParallelTrainer(t *testing.T) {
	for _, d := range localDetectors {
		t.Run(d.String(), func(t *testing.T) {
			p, ds, res := incrementalFixture(t, parallelLocalConfig(d))
			rng := rand.New(rand.NewSource(47))
			for trial := 0; trial < 2; trial++ {
				batch := randomBatch(rng, ds.G, 6)
				if err := VerifyIncremental(p, ds, res, batch); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
		})
	}
}

// TestParallelTrainerMatchesSerialRun: full pipeline runs with workers=1
// and workers=8 must produce identical predictions — the end-to-end form
// of the gbdt package's tree bit-identity property.
func TestParallelTrainerMatchesSerialRun(t *testing.T) {
	_, _, serial := incrementalFixture(t, localConfig(DetectorClauset))
	_, _, parallel := incrementalFixture(t, parallelLocalConfig(DetectorClauset))
	if serial.Edges.Len() != parallel.Edges.Len() {
		t.Fatalf("prediction counts differ: %d vs %d", serial.Edges.Len(), parallel.Edges.Len())
	}
	assertStoresEqual(t, "parallel vs serial", parallel.Edges, serial.Edges)
}

// TestGirvanNewmanDivideMatchesAcrossWorkers: Phase I with the paper's
// detector must not depend on the width (GOMAXPROCS). GirvanNewman draws
// its scratch from a pool shared by the workers, so at 2 and 8 every ego
// runs on buffers some other ego left behind.
func TestGirvanNewmanDivideMatchesAcrossWorkers(t *testing.T) {
	net, err := wechat.Generate(wechat.DefaultConfig(120, 5))
	if err != nil {
		t.Fatal(err)
	}
	net.RunSurvey(0.5, 6)
	divide := func(workers int) []*EgoResult {
		testutil.SetProcs(t, workers)
		return Divide(net.Dataset, DivisionConfig{Detector: DetectorGirvanNewman})
	}
	serial := divide(1)
	for _, workers := range []int{2, 8} {
		for u, got := range divide(workers) {
			want := serial[u]
			if !slices.Equal(got.Members, want.Members) || !slices.Equal(got.CommIdx, want.CommIdx) ||
				!slices.Equal(got.Tightness, want.Tightness) || len(got.Comms) != len(want.Comms) {
				t.Fatalf("workers=%d ego %d: division differs from the serial run", workers, u)
			}
			for c := range want.Comms {
				if !slices.Equal(got.Comms[c].Members, want.Comms[c].Members) ||
					!slices.Equal(got.Comms[c].Tightness, want.Comms[c].Tightness) {
					t.Fatalf("workers=%d ego %d community %d differs from the serial run", workers, u, c)
				}
			}
		}
	}
}
