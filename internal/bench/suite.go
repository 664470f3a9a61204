package bench

import (
	"fmt"
	"sort"

	"locec/internal/wal"
)

// suites maps each suite name to its scenario list. Suites are built
// lazily so listing them costs nothing.
var suites = map[string]func() []Scenario{
	// smoke is the CI gate: every scenario family at tiny scale, small
	// enough to run on every pull request yet covering pipeline phases,
	// Phase I division and both serving hot paths (with latency
	// percentiles). The n=1000 pipeline + incremental pair exists for the
	// comparison the incremental engine is sold on: one mutation epoch
	// versus a full retrain at the same population.
	"smoke": func() []Scenario {
		return []Scenario{
			PipelineScenario(100, 1.0),
			TrainCommCNNScenario(100, 6),
			CombineScenario(100),
			DivideScenario("gn", 100),
			DivideScenario("labelprop", 100),
			DivideScenario("clauset", 100),
			DivideScenario("lshell", 100),
			DivideScenario("lemon", 100),
			ServeLookupScenario(100, 400),
			ServeClassifyScenario(100, 16, 400),
			ArtifactLoadScenario(100),
			ServeColdStartScenario(100),
			PipelineScenario(1000, 1.0),
			// The histogram-trainer acceptance row: training at n=10000 is
			// its ≥4× speedup gate.
			PipelineScenario(10000, 1.0),
			// The vectorized-combiner acceptance rows: Phase III alone at
			// n=10000 (GEMM-batched training + blocked prediction over
			// ~100k edges) and the logreg trainer isolated at the
			// combiner's 182-feature shape.
			CombineScenario(10000),
			LogregTrainScenario(8192),
			GBDTTrainScenario(1000),
			IncrementalApplyScenario(1000),
			IncrementalApplySeededScenario(1000),
			WALAppendScenario(1000, wal.SyncAlways),
			WALAppendScenario(1000, wal.SyncBatch),
			WALAppendScenario(1000, wal.SyncNone),
			ServeReplayScenario(1000, 32),
			// The sharded serving path: the shards sweep at fixed n is
			// the near-linear scaling gate (per-request router cost must
			// not grow with the fleet); classify exercises scatter-gather
			// across 4 shards. The router suite repeats the sweep at
			// production scale.
			RouterLookupScenario(100, 1, 400),
			RouterLookupScenario(100, 2, 400),
			RouterLookupScenario(100, 4, 400),
			RouterLookupScenario(100, 8, 400),
			RouterClassifyScenario(100, 4, 16, 200),
		}
	},
	// router sweeps the shard axis at the n=100k wechat-scale graph —
	// the acceptance run for near-linear lookup scaling 1→2→4→8. Too
	// slow for the per-PR gate (training dominates), so it runs on
	// demand like the scale sweep.
	"router": func() []Scenario {
		return []Scenario{
			RouterLookupScenario(100000, 1, 2000),
			RouterLookupScenario(100000, 2, 2000),
			RouterLookupScenario(100000, 4, 2000),
			RouterLookupScenario(100000, 8, 2000),
			RouterClassifyScenario(100000, 4, 64, 500),
		}
	},
	// scale sweeps the population axis (Fig. 12(a) / Table VI regime):
	// n ∈ {1k, 10k, 100k} at base density.
	"scale": func() []Scenario {
		return []Scenario{
			PipelineScenario(1000, 1.0),
			PipelineScenario(10000, 1.0),
			PipelineScenario(100000, 1.0),
		}
	},
	// density sweeps edge density at fixed population: sparser and
	// denser ego networks stress Phase I and feature construction
	// differently.
	"density": func() []Scenario {
		return []Scenario{
			PipelineScenario(1000, 0.5),
			PipelineScenario(1000, 1.0),
			PipelineScenario(1000, 2.0),
		}
	},
	// detectors compares the Phase I community-detection algorithms on
	// identical ego networks.
	"detectors": func() []Scenario {
		return []Scenario{
			DivideScenario("gn", 400),
			DivideScenario("labelprop", 400),
			DivideScenario("louvain", 400),
			DivideScenario("clauset", 400),
			DivideScenario("lshell", 400),
			DivideScenario("lemon", 400),
		}
	},
	// serve measures the serving layer at a more realistic scale than
	// smoke: lookup and batch-classify throughput with p50/p95/p99.
	"serve": func() []Scenario {
		return []Scenario{
			ServeLookupScenario(400, 2000),
			ServeClassifyScenario(400, 64, 1000),
		}
	},
}

// full chains every suite except the long-running scale sweep. Scenarios
// that appear in several suites (smoke and density both carry the n=1000
// pipeline) run once: the differ matches results by name, so a chained
// suite must not emit duplicates.
func init() {
	suites["full"] = func() []Scenario {
		seen := map[string]bool{}
		var out []Scenario
		for _, name := range []string{"smoke", "density", "detectors", "serve"} {
			for _, sc := range suites[name]() {
				if seen[sc.Name] {
					continue
				}
				seen[sc.Name] = true
				out = append(out, sc)
			}
		}
		return out
	}
}

// SuiteNames lists the defined suites alphabetically.
func SuiteNames() []string {
	names := make([]string, 0, len(suites))
	for name := range suites {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Suite resolves a suite name to its scenarios.
func Suite(name string) ([]Scenario, error) {
	f, ok := suites[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown suite %q (have %v)", name, SuiteNames())
	}
	return f(), nil
}

// RunSuite measures a whole suite and wraps the results in a Report.
func RunSuite(name string, opt Options) (Report, error) {
	scs, err := Suite(name)
	if err != nil {
		return Report{}, err
	}
	results, err := RunScenarios(scs, opt)
	if err != nil {
		return Report{}, err
	}
	return NewReport(name, results), nil
}
