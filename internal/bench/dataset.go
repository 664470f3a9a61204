package bench

import (
	"fmt"
	"math/rand"
	"sync"

	"locec/internal/graph"
	"locec/internal/social"
	"locec/internal/wechat"
)

// Fixtures are cached per process so a package's Benchmark* functions
// generating the same dataset twice pay generation cost once.
// Everything returned here is shared — treat it as strictly read-only,
// which every pipeline entry point already does.
var (
	fixMu    sync.Mutex
	fixtures = map[string]any{}
)

// fixture returns the cached value for key, generating it on first use.
func fixture[T any](key string, gen func() (T, error)) (T, error) {
	fixMu.Lock()
	defer fixMu.Unlock()
	if v, ok := fixtures[key]; ok {
		return v.(T), nil
	}
	v, err := gen()
	if err != nil {
		var zero T
		return zero, err
	}
	fixtures[key] = v
	return v, nil
}

// surveyFraction is the revealed-label fraction every dataset fixture
// uses — the paper's ~40% survey coverage.
const surveyFraction = 0.4

// Dataset returns a surveyed WeChat-like dataset with the given user
// count, density multiplier (1.0 = the calibrated DefaultConfig; <1
// sparser, >1 denser) and generator seed. Results are cached; callers
// must not mutate them.
func Dataset(users int, density float64, seed int64) (*social.Dataset, error) {
	key := fmt.Sprintf("wechat/%d/%g/%d", users, density, seed)
	return fixture(key, func() (*social.Dataset, error) {
		cfg := wechat.DefaultConfig(users, seed)
		applyDensity(&cfg, density)
		net, err := wechat.Generate(cfg)
		if err != nil {
			return nil, err
		}
		net.RunSurvey(surveyFraction, seed+7)
		return net.Dataset, nil
	})
}

// WeChatDataset is Dataset at base density with the fixture seed shared
// by the per-package benchmarks. It panics on generation failure (only
// possible for users < 20), keeping benchmark call sites one line.
func WeChatDataset(users int) *social.Dataset {
	ds, err := Dataset(users, 1.0, 42)
	if err != nil {
		panic(err)
	}
	return ds
}

// applyDensity scales every intra-circle edge probability, triadic
// closure probability and the random-edge rate by mult, clamping
// probabilities to 1. Circle sizes and membership stay fixed so the
// sweep isolates edge density from population structure.
func applyDensity(cfg *wechat.Config, mult float64) {
	if mult == 1 || mult <= 0 {
		return
	}
	clamp := func(p *float64) {
		*p *= mult
		if *p > 1 {
			*p = 1
		}
	}
	clamp(&cfg.FamilyDensity)
	clamp(&cfg.WorkDensity)
	clamp(&cfg.PastWorkDensity)
	clamp(&cfg.SchoolDensity)
	clamp(&cfg.HobbyDensity)
	clamp(&cfg.WorkClosure)
	clamp(&cfg.PastWorkClosure)
	clamp(&cfg.SchoolClosure)
	clamp(&cfg.HobbyClosure)
	cfg.RandomEdgesPerUser *= mult
}

// EgoGraph returns a planted two-community graph shaped like a typical
// ego network — the Phase I unit of work the community-detector
// benchmarks exercise. Cached per (n, seed).
func EgoGraph(n int, seed int64) *graph.Graph {
	key := fmt.Sprintf("ego/%d/%d", n, seed)
	g, _ := fixture(key, func() (*graph.Graph, error) {
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(n)
		half := n / 2
		dense := func(lo, hi int, p float64) {
			for i := lo; i < hi; i++ {
				for j := i + 1; j < hi; j++ {
					if rng.Float64() < p {
						_ = b.AddEdge(graph.NodeID(i), graph.NodeID(j))
					}
				}
			}
		}
		dense(0, half, 0.5)
		dense(half, n, 0.5)
		_ = b.AddEdge(graph.NodeID(half-1), graph.NodeID(half))
		return b.Build(), nil
	})
	return g
}

// RandomEdges returns a deterministic list of random node pairs (self
// loops excluded, duplicates allowed — Builder deduplicates) for builder
// benchmarks. Cached per (n, m, seed).
func RandomEdges(n, m int, seed int64) [][2]graph.NodeID {
	key := fmt.Sprintf("edges/%d/%d/%d", n, m, seed)
	edges, _ := fixture(key, func() ([][2]graph.NodeID, error) {
		rng := rand.New(rand.NewSource(seed))
		out := make([][2]graph.NodeID, 0, m)
		for len(out) < m {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u != v {
				out = append(out, [2]graph.NodeID{u, v})
			}
		}
		return out, nil
	})
	return edges
}

// RandomGraph returns an Erdős–Rényi-ish graph with roughly the given
// average degree. Cached per (n, degree, seed).
func RandomGraph(n, degree int, seed int64) *graph.Graph {
	// Resolve the edge-list fixture first: fixture() holds fixMu during
	// generation, so nesting the call would self-deadlock.
	edges := RandomEdges(n, n*degree/2, seed)
	key := fmt.Sprintf("rand/%d/%d/%d", n, degree, seed)
	g, _ := fixture(key, func() (*graph.Graph, error) {
		b := graph.NewBuilder(n)
		for _, e := range edges {
			_ = b.AddEdge(e[0], e[1])
		}
		return b.Build(), nil
	})
	return g
}
